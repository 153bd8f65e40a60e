"""Theorems 3.1 and 3.7: decompositions from one private bit per h hops.

The premise (Section 3.1): only a subset S of nodes hold randomness — a
single independent bit each — but every node has a holder within
h = poly(log n) hops. The pipeline:

* **Lemma 3.2 (bit gathering).** Compute an (h', h' log n)-ruling set R
  with h' = Θ(k h); cluster every node with its nearest R-center
  (Voronoi, by flooding). Any cluster with a neighboring cluster extends
  at least h'/3 hops from its center, so it traps >= k distinct holders,
  whose bits the center gathers by an upcast. Isolated clusters are
  entire connected components and need no randomness at all.

* **Lemma 3.3 (Theorem 3.1).** Contract each cluster to one vertex of the
  logical cluster graph CG and run the Elkin–Neiman construction on CG,
  drawing the geometric shifts from each center's gathered pool. One CG
  round costs O(cluster diameter) real rounds; only top-two aggregates
  cross cluster borders, so the simulation is CONGEST-legal. Result: an
  (O(log n), h poly(log n))-decomposition with congestion 1 — note the
  *h-dependent* diameter.

* **Theorem 3.7.** Gather a larger pool per cluster, then treat each
  cluster's pool as *locally shared randomness* and run the Theorem 3.6
  phase/epoch construction directly on G (not on CG): every node draws
  its election/radius bits from its own cluster's pool, expanded k-wise.
  Bits in different clusters are fully independent; within a cluster the
  expansion gives Θ(log² n)-wise independence, which is all the
  Theorem 3.6 analysis uses. Result: a strong-diameter decomposition with
  O(log n) colors and O(log² n) radius — *h-free*.

Both run :func:`~.elkin_neiman.carve`: Theorem 3.1 on the cluster
graph, Theorem 3.7 as Theorem 3.6's
:func:`~.shared_congest.phase_epoch_decomposition` itself, with one
shared string per cluster (seeded by its pool) and each node owned by
its cluster.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ...errors import ConfigurationError, RandomnessExhausted
from ...randomness.pooled import PooledBits
from ...randomness.shared import SharedRandomness
from ...randomness.sparse import SparseRandomness
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition
from ..ruling_sets import cluster_adjacency, greedy_ruling_set, voronoi_clusters
from .elkin_neiman import assemble, carve
from .shared_congest import _defaults, phase_epoch_decomposition, seed_schedule


@dataclasses.dataclass
class GatheredBits:
    """Output of the Lemma 3.2 gathering step."""

    assignment: Dict[int, int]          # node -> center
    pools: Dict[int, List[int]]         # center -> gathered bits
    isolated: Set[int]                  # centers whose cluster is a component
    spacing: int                        # the h' actually used
    report: RunReport

    def cluster_members(self) -> Dict[int, Set[int]]:
        out: Dict[int, Set[int]] = {}
        for v, c in self.assignment.items():
            out.setdefault(c, set()).add(v)
        return out


def gather_bits(
    graph: DistributedGraph,
    source: SparseRandomness,
    bits_needed: int,
    spacing: Optional[int] = None,
) -> GatheredBits:
    """Lemma 3.2: cluster the graph so each non-isolated cluster traps
    ``bits_needed`` holder bits at its center.

    ``spacing`` is the ruling-set parameter h'; the paper uses
    h' = 10 * k * h, which guarantees the pool size. Experiments may pass
    a smaller spacing (pools are verified at consumption time — running
    out raises :class:`RandomnessExhausted`, surfacing the shortfall).
    """
    if bits_needed < 1:
        raise ConfigurationError("bits_needed must be >= 1")
    h = max(1, source.h)
    h_prime = spacing if spacing is not None else 10 * bits_needed * h
    if h_prime < 2:
        raise ConfigurationError(f"spacing must be >= 2, got {h_prime}")

    centers, ruling_report = greedy_ruling_set(graph, alpha=h_prime)
    assignment = voronoi_clusters(graph, centers)
    members = {}
    for v, c in assignment.items():
        members.setdefault(c, set()).add(v)

    offsets, _indices, centers = cluster_adjacency(graph, assignment)
    isolated = set(centers[np.diff(offsets) == 0].tolist())

    # Each cluster's holders in UID order, all their bits in one read.
    held = {center: [] if center in isolated
            else sorted(cluster & source.holders, key=graph.uid)
            for center, cluster in members.items()}
    bits = source.bits_each([s for group in held.values() for s in group],
                            1)[:, 0].tolist()
    pools: Dict[int, List[int]] = {}
    at = 0
    for center, group in held.items():
        pools[center] = bits[at:at + len(group)]
        at += len(group)

    logn = ceil_log2(graph.n)
    report = ruling_report.merge(RunReport(
        rounds=h_prime * logn + bits_needed,
        accounted=True,
        model="CONGEST",
        randomness_bits=0,
        notes=[
            f"Lemma 3.2: flooding ({h_prime} log n) + upcast of "
            f"{bits_needed} bits; spacing h'={h_prime}, h={h}"
        ],
    ))
    return GatheredBits(assignment=assignment, pools=pools,
                        isolated=isolated, spacing=h_prime, report=report)


def sparse_bits_decomposition(
    graph: DistributedGraph,
    source: SparseRandomness,
    spacing: Optional[int] = None,
    phases: Optional[int] = None,
    cap: Optional[int] = None,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Theorem 3.1: (O(log n), h poly(log n))-decomposition, congestion 1.

    Lemma 3.2 gathering followed by the Lemma 3.3 Elkin–Neiman run on the
    cluster graph, drawing geometric shifts from the gathered pools. The
    extra dict keeps that run's measured ``rounds_measured`` and
    ``messages``, counted in cluster-graph rounds and messages.
    """
    n = graph.n
    logn = ceil_log2(n)
    phases = phases if phases is not None else max(4, 4 * logn)
    cap = cap if cap is not None else max(4, 2 * logn)
    # Lemma 3.3 budgets C log^2 n bits per pool but footnote 9 observes
    # O(log n) suffice w.h.p. (a Geometric(1/2) draw consumes 2 bits in
    # expectation); we gather the w.h.p. budget and degrade gracefully
    # (radius 1, counted below) if a pool still runs dry.
    bits_needed = 4 * phases

    gathered = gather_bits(graph, source, bits_needed, spacing=spacing)
    pools = PooledBits({c: bits for c, bits in gathered.pools.items()})
    # The cluster graph without its isolated vertices (they have no
    # edges, so dropping their members drops nothing else).
    offsets, indices, active = cluster_adjacency(graph, {
        v: c for v, c in gathered.assignment.items()
        if c not in gathered.isolated})

    cursor: Dict[int, int] = {}
    exhaustions = [0]

    def draw(center) -> int:
        offset = cursor.get(center, 0)
        try:
            value, used = pools.geometric(center, cap, offset)
        except RandomnessExhausted:
            exhaustions[0] += 1
            return 1
        cursor[center] = offset + used
        return value

    assignment_cg, left_cg, measured, _log = carve(
        offsets, indices,
        lambda centers, _phase, _epoch: np.array(
            [draw(c) for c in active[centers].tolist()], dtype=np.int64),
        phases, cap)
    labels = active.tolist()
    remaining = {labels[i] for i in left_cg}

    extra: Dict[str, object] = {
        "unclustered_clusters": set(remaining),
        "num_level1_clusters": len(gathered.pools),
        "isolated_clusters": len(gathered.isolated),
        "pool_sizes": {c: len(b) for c, b in gathered.pools.items()},
        "pool_bits_used": pools.bits_consumed,
        "pool_exhaustions": exhaustions[0],
        "spacing": gathered.spacing,
        **measured,
    }
    members = gathered.cluster_members()
    cluster_diameter = 2 * (gathered.spacing - 1)
    en_report = RunReport(
        rounds=phases * (cap + 2) * (cluster_diameter + 1),
        accounted=True,
        model="CONGEST",
        randomness_bits=pools.bits_consumed,
        notes=[
            f"Lemma 3.3: EN on cluster graph, {phases} phases x (cap+2) "
            f"CG-rounds x O(cluster diameter {cluster_diameter}) real rounds"
        ],
    )
    report = gathered.report.merge(en_report)

    if remaining and strict:
        return None, report, extra

    # Isolated clusters first, with color 0 (they have no neighbors, so
    # any color is legal), then the cluster graph's carving, expanded
    # through each level-1 cluster's members.
    units = {center: (0, center) for center in sorted(gathered.isolated)}
    units.update((labels[i], (phase, labels[c]))
                 for i, (phase, c) in assignment_cg.items())
    decomposition = assemble(units, remaining)
    decomposition.cluster_of = {
        v: cid for center, cid in decomposition.cluster_of.items()
        for v in members[center]}
    return decomposition, report, extra


def sparse_bits_strong_decomposition(
    graph: DistributedGraph,
    source: SparseRandomness,
    spacing: Optional[int] = None,
    k: Optional[int] = None,
    max_phases: Optional[int] = None,
    epochs: Optional[int] = None,
    cap: Optional[int] = None,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Theorem 3.7: strong-diameter (O(log n), O(log² n))-decomposition.

    Gather O(log⁴ n)-bit pools per cluster (Lemma 3.2), broadcast each
    pool inside its cluster, then run the Theorem 3.6 phase/epoch
    construction on G with each node reading its own cluster's pool as
    locally-shared randomness. The resulting diameter is h-free.
    """
    n = graph.n
    logn = ceil_log2(n)
    # The theorem uses Θ(log² n)-wise independence; we default to the
    # laptop-scaled Θ(log n) so the k*m seed cost stays below realistic
    # pool sizes (constants are scaled down, asymptotics are not).
    k, max_phases, epochs, cap = _defaults(
        n, k if k is not None else max(4, logn), max_phases, epochs, cap)
    per_source = seed_schedule(n, k, epochs, cap)[0]
    # The theorem gathers O(log^4 n) true bits per cluster. We gather the
    # per-source seed cost times a small phase allowance; the rest of the
    # seed stream is derived from the gathered bits by the deterministic
    # SHA expansion below.
    bits_needed = 2 * per_source * min(max_phases, 2 * logn) * epochs
    gather_target = max(1, min(bits_needed, 8 * logn * logn))
    seed_stream_bits = 2 * max_phases * epochs * per_source

    gathered = gather_bits(graph, source, gather_target, spacing=spacing)

    # Each cluster's gathered pool seeds a cluster-local shared string.
    # The paper broadcasts the raw pool and expands it k-wise inside the
    # Theorem 3.6 construction; at laptop scale the pool is shorter than
    # the construction's full seed appetite, so we stretch it with the
    # deterministic SHA expansion (a documented substitution: the true
    # entropy per cluster is still exactly the gathered pool, and pools
    # of different clusters remain fully independent).
    local_shared: Dict[int, SharedRandomness] = {}
    for center, bits in gathered.pools.items():
        pool_seed = 1  # deterministic fallback for isolated clusters
        for b in bits:
            pool_seed = (pool_seed << 1) | b
        local_shared[center] = SharedRandomness(
            seed_stream_bits, seed=pool_seed)
    owner = np.array([gathered.assignment[v] for v in graph.nodes()],
                     dtype=np.int64)

    decomposition, carve_report, extra = phase_epoch_decomposition(
        graph, local_shared, owner, k, max_phases, epochs, cap,
        strict=strict)

    share_rounds = 2 * (gathered.spacing - 1) + gather_target // max(1, logn)
    report = gathered.report.merge(carve_report).annotate(
        f"Theorem 3.7: pool broadcast ~{share_rounds} rounds; "
        f"{extra['sources_expanded']} per-cluster sources expanded"
    )
    extra["pool_sizes"] = {c: len(b) for c, b in gathered.pools.items()}
    extra["gather_target_per_pool"] = gather_target
    extra["num_level1_clusters"] = len(gathered.pools)
    return decomposition, report, extra
