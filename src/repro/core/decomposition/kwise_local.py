"""Theorem 3.5: network decomposition from poly(log n)-wise independence.

The theorem states that the known randomized decompositions keep working
when the nodes' bits are only poly(log n)-wise independent (its proof
routes through conflict-free hypergraph multi-coloring, implemented in
:mod:`repro.core.hypergraph`). The *operational* content — the one an
experiment can measure — is the direct instantiation: run the
Elkin–Neiman construction drawing every geometric shift from a k-wise
independent source, and watch success appear once k reaches the
Θ(log² n) the analysis consumes (each node's clustering event in a phase
is determined by O(log n) nearby shifts of O(log n) bits each, so
Θ(log² n)-wise independence makes that event's distribution identical to
the fully independent case).

E2 sweeps k from 1 upward against the fully-independent reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...randomness.kwise import KWiseSource
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition
from .elkin_neiman import default_cap, default_phases, elkin_neiman


def kwise_source(n: int, k: int, phases: int, cap: int,
                 seed: int) -> KWiseSource:
    """The k-wise source Theorem 3.5's Elkin–Neiman run draws from: every
    node's ``phases * cap`` shift bits from one ``k * m``-bit seed."""
    return KWiseSource(k, num_nodes=n, bits_per_node=phases * cap, seed=seed)


def kwise_decomposition(
    graph: DistributedGraph,
    k: Optional[int] = None,
    seed: int = 0,
    phases: Optional[int] = None,
    cap: Optional[int] = None,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Elkin–Neiman decomposition over a k-wise independent source.

    ``k`` defaults to the Θ(log² n) of the theorem. The report's
    ``randomness_bits`` is the number of k-wise bits consumed; the extra
    dict records the *seed* length (k·m fully independent bits), which is
    the quantity Section 3.2 counts.
    """
    n = graph.n
    logn = ceil_log2(n)
    if k is None:
        k = max(4, logn * logn)
    phases = phases if phases is not None else default_phases(n)
    cap = cap if cap is not None else default_cap(n)
    source = kwise_source(n, k, phases, cap, seed)
    decomposition, report, extra = elkin_neiman(
        graph, source, phases=phases, cap=cap,
        finish="strict" if strict else "singletons")
    report.annotate(
        f"Theorem 3.5: k={k}-wise independent bits; seed = {source.seed_bits} "
        f"fully independent bits expand to {n * phases * cap} k-wise bits"
    )
    extra["k"] = k
    extra["seed_bits"] = source.seed_bits
    extra["field_degree"] = source.field.m
    return decomposition, report, extra
