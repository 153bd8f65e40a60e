"""Theorem 4.2: boosting the success probability via graph shattering.

The goal: a T-round decomposition algorithm whose failure probability is
``n^(-2^(ε log² T))`` — dramatically below the 1/poly(n) of standard
algorithms. The proof (and this implementation) composes:

1. run the Elkin–Neiman decomposition tuned for per-node failure
   probability <= 1/n² (Θ(log n) phases);
2. the leftover set V̄ is "shattered": the outputs of nodes at pairwise
   distance > 2t (t = the EN locality) are *independent*, so the
   probability that some (2t+1)-separated subset of size K survives in V̄
   is at most C(n, K) / n^(2K) <= n^(-K) — failure drops geometrically
   in K;
3. compute a (2t+1, O(t log n))-ruling set S of V̄ — at most K nodes
   w.h.p. — grow BFS clusters of radius O(t log n) around S covering V̄,
   and finish the cluster graph with a *deterministic* decomposition
   (ball carving, standing in for [Gha19]/[PS92]); a deterministic finish
   on <= K clusters cannot fail, so the only failure event left is the
   size-K separated set, giving success 1 - n^(-K).

Choosing K = 2^(ε log² T) balances the deterministic finish time against
the target failure bound, which is Theorem 4.2's statement. The EN
clusters and the finish's balls are numbered by one
:func:`~.elkin_neiman.assemble` call.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

from ...randomness.source import RandomSource
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition
from ..ruling_sets import cluster_adjacency, greedy_ruling_set, voronoi_clusters
from .deterministic import ball_carving
from .elkin_neiman import assemble, default_cap, elkin_neiman


def shattering_decomposition(
    graph: DistributedGraph,
    source: RandomSource,
    en_phases: Optional[int] = None,
    cap: Optional[int] = None,
) -> Tuple[Decomposition, RunReport, Dict[str, object]]:
    """The Theorem 4.2 pipeline; always returns a decomposition.

    Unlike the strict EN runs, this construction converts randomized
    failure into extra (deterministically handled) clusters, so the
    interesting outputs are in ``extra``:

    * ``leftover`` — |V̄| after the EN phase;
    * ``separated_set_size`` — the K the failure bound is exponential in;
    * ``en_colors`` / ``det_colors`` — color budget split between stages.
    """
    n = graph.n
    logn = ceil_log2(n)
    # Θ(log n) phases give per-node failure ~ 2^-phases ~ 1/n²;
    # the proof of Theorem 4.2 runs [EN16] "such that it succeeds with
    # probability at least 1 - 1/n²" per node.
    en_phases = en_phases if en_phases is not None else max(4, 2 * logn + 4)
    cap = cap if cap is not None else default_cap(n)

    decomposition, en_report, en_extra = elkin_neiman(
        graph, source, phases=en_phases, cap=cap, finish="strict")
    leftover: Set[int] = set(en_extra["unclustered"])
    t = en_phases * (cap + 2)  # EN locality: outputs depend on <= t hops

    extra: Dict[str, object] = {
        "leftover": len(leftover),
        "t": t,
        "en_phases": en_phases,
    }

    if decomposition is not None:
        extra["separated_set_size"] = 0
        extra["en_colors"] = decomposition.num_colors()
        extra["det_colors"] = 0
        return decomposition, en_report, extra

    # ------------------------------------------------------------------
    # Shattered finish.
    # ------------------------------------------------------------------
    alpha = 2 * t + 1
    separated, ruling_report = greedy_ruling_set(
        graph, alpha=alpha, subset=leftover)
    extra["separated_set_size"] = len(separated)

    # BFS clusters around S covering V̄ (trees may use any nodes, so the
    # assignment floods the whole graph and is then restricted to V̄).
    assignment_all = voronoi_clusters(graph, separated)
    center_of = {v: assignment_all[v] for v in leftover}

    # Cluster graph on the separated centers: adjacent iff their V̄
    # members are adjacent in G.
    offsets, indices, centers = cluster_adjacency(graph, center_of)
    det_ball, det_color = ball_carving(
        offsets, indices, [graph.uid(c) for c in centers.tolist()])

    # ------------------------------------------------------------------
    # Combine: EN clusters keep their phase colors (one cluster per
    # (phase, center) of the strict run's assignment); shattered clusters
    # follow, one per ball in carving order, with fresh colors offset
    # past the EN palette.
    # ------------------------------------------------------------------
    assignment = dict(en_extra["assignment"])
    en_palette = {phase for phase, _center in assignment.values()}
    offset = max(en_palette, default=-1) + 1
    ball_of = dict(zip(centers.tolist(), det_ball.tolist()))
    det = det_color.tolist()
    for v in sorted(center_of, key=lambda v: ball_of[center_of[v]]):
        ball = ball_of[center_of[v]]
        assignment[v] = (offset + det[ball], ball)
    decomposition = assemble(assignment)

    extra["en_colors"] = len(en_palette)
    extra["det_colors"] = len(set(det))

    logK = ceil_log2(len(separated) + 1)
    finish_report = ruling_report.merge(RunReport(
        rounds=(2 * logK + 2) * (alpha * logn + 2),
        accounted=True,
        model="CONGEST",
        notes=[
            f"deterministic finish: ball carving on {len(centers)} "
            f"shattered clusters of radius O(t log n)"
        ],
    ))
    report = en_report.merge(finish_report)
    return decomposition, report, extra


def theoretical_failure_bound(n: int, K: int) -> float:
    """The n^-K failure bound of the separated-set union bound."""
    if n < 2:
        return 0.0
    return float(n) ** (-K)


def target_K(T: int, epsilon: float = 0.25) -> int:
    """The K = 2^(ε log² T) of the theorem statement."""
    logT = max(1.0, math.log2(max(2, T)))
    return max(1, int(round(2 ** (epsilon * logT * logT))))
