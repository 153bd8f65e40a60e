"""Ablations: why the constructions are built the way they are.

Each ablation removes or weakens one design choice of a construction
and shows the measured consequence — the executable version of the
paper's "why the gap rule / the spacing / the phase budget" remarks.

* A1 — the Elkin–Neiman gap rule. The paper clusters a node only when
  ``m1 - m2 > 1``. Relaxing to ``m1 - m2 > 0`` (join any strict max)
  speeds clustering but produces adjacent same-phase clusters —
  invalid decompositions. The ablation measures the violation rate.
* A2 — the phase budget. Success probability of strict EN as the phase
  count sweeps: the exponential approach to 1 that both Theorem 4.2's
  provisioning and Theorem 4.3's lie-about-n exploit.
* A3 — the Lemma 3.2 spacing h'. Pool sizes grow with the spacing;
  too-small spacing exhausts cluster pools (counted) and eventually
  costs success.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.decomposition import (
    assemble,
    carve,
    elkin_neiman,
    sparse_bits_decomposition,
)
from ..graphs import trial_graph
from ..randomness import IndependentSource, SparseRandomness
from ..sim.messages import ceil_log2
from ..structures import Decomposition
from .stats import success_rate
from .tables import Table


def a1_gap_rule(quick: bool = False, seed: int = 0) -> Table:
    """Gap > 1 (paper) vs gap > 0 (ablated): validity of the output."""
    n = 60 if quick else 120
    trials = 10 if quick else 30
    phases, cap = 4 * ceil_log2(n), 2 * ceil_log2(n)
    rows: List[Dict[str, object]] = []
    for min_gap, label in ((1, "paper (gap > 1)"), (0, "ablated (gap > 0)")):
        valid, clustered_fraction = [], []
        for t in range(trials):
            g = trial_graph("gnp-sparse", n, seed + t)
            source = IndependentSource(seed=seed + 91 * t)

            def draw(centers, phase, _epoch):
                return source.geometrics(centers.tolist(), cap,
                                         phase * cap)[0]

            assignment, remaining, _measured, _log = carve(
                g.csr.offsets, g.csr.indices, draw, phases, cap,
                min_gap=min_gap)
            clustered_fraction.append(len(assignment) / n)
            if remaining:
                valid.append(False)
                continue
            dec = Decomposition(*assemble(assignment))
            valid.append(not dec.violations(g))
        rows.append({
            "rule": label,
            "valid rate": success_rate(valid),
            "avg clustered fraction": sum(clustered_fraction) / trials,
        })
    return Table(
        title="A1 (ablation): the Elkin–Neiman gap rule",
        rows=rows,
        notes=["gap > 0 clusters faster but same-phase clusters touch: "
               "adjacent clusters share a color -> invalid decomposition"],
    )


def a2_phase_budget(quick: bool = False, seed: int = 0) -> Table:
    """Strict-EN success rate vs the phase budget."""
    n = 64 if quick else 100
    trials = 20 if quick else 50
    cap = 2 * ceil_log2(n)
    rows: List[Dict[str, object]] = []
    for phases in (1, 2, 4, 8, 16):
        outcomes = []
        for t in range(trials):
            g = trial_graph("gnp-sparse", n, seed + t)
            dec, _r, _e = elkin_neiman(
                g, IndependentSource(seed=seed + 17 * t),
                phases=phases, cap=cap, finish="strict")
            outcomes.append(dec is not None)
        rows.append({
            "phases": phases,
            "success": success_rate(outcomes),
            "rounds": phases * (cap + 2),
        })
    return Table(
        title="A2 (ablation): phase budget vs success probability",
        rows=rows,
        notes=["per-phase clustering probability is constant, so failure "
               "decays exponentially in the budget — the knob Theorems "
               "4.2/4.3 turn"],
    )


def a3_spacing(quick: bool = False, seed: int = 0) -> Table:
    """Lemma 3.2 spacing vs pool sizes, exhaustion, and success."""
    n = 144 if quick else 256
    trials = 3 if quick else 8
    h = 1
    rows: List[Dict[str, object]] = []
    for spacing in (3, 6, 12, 24):
        min_pools, exhaustions, outcomes = [], [], []
        for t in range(trials):
            g = trial_graph("grid", n, seed + t)
            source = SparseRandomness.for_graph(g, h=h, seed=seed + 3 * t)
            dec, _r, extra = sparse_bits_decomposition(
                g, source, spacing=spacing, strict=False)
            # Isolated clusters gather no bits by design; they need
            # none, so exclude them from the budget statistic.
            pools = [size for size in extra["pool_sizes"].values() if size]
            min_pools.append(min(pools) if pools else float("inf"))
            exhaustions.append(extra["pool_exhaustions"])
            outcomes.append(dec is not None and dec.is_valid(g)
                            and not extra["unclustered_clusters"])
        min_pool = min(min_pools)
        rows.append({
            "spacing h'": spacing,
            "min pool bits": "all-isolated" if min_pool == float("inf")
                             else min_pool,
            "avg exhaustions": sum(exhaustions) / trials,
            "success": success_rate(outcomes),
        })
    return Table(
        title="A3 (ablation): Lemma 3.2 spacing vs gathered pool budget",
        rows=rows,
        notes=["larger spacing -> bigger clusters -> more trapped holder "
               "bits -> fewer pool exhaustions (the h' = Theta(k h) choice)"],
    )


ABLATIONS = {
    "a1": a1_gap_rule,
    "a2": a2_phase_budget,
    "a3": a3_spacing,
}
