"""Theorem 3.6: network decomposition from poly(log n) shared bits, CONGEST.

The construction (Section 3.2 of the paper) runs O(log n) *phases*; each
phase carves non-adjacent clusters of strong radius O(log² n) such that
every live node is clustered with constant probability. A phase consists
of p = Θ(log n) *epochs* i = 1..p with decreasing base radius
``R_i = (p - i) * Θ(log n)``:

* every still-available node elects itself a center with probability
  ``~ 2^i log n / n`` (doubling each epoch; in the last epoch every node
  is a center, so nobody survives a phase un-reached);
* each center u draws ``X_u ~ Geometric(1/2)`` (capped at Θ(log n)) and
  its cluster can reach nodes v with ``R_i + X_u >= d(u, v)``;
* node v considers the best and second-best values of
  ``(R_i + X_u) - d(u, v)``; with a gap > 1 it joins the best center
  (colored with this phase's color), with a gap in {0, 1} it is *set
  aside* until the next phase, and if unreached it continues to the next
  epoch.

Randomness: the election and radius draws of each (phase, epoch) come
from Θ(log² n)-wise independent bit sources expanded deterministically
from the global shared string ([AS04] expansion, implemented by
:meth:`SharedRandomness.expand_kwise`), so the whole algorithm consumes
only the poly(log n)-bit shared seed — no private randomness at all.

Messages: per epoch one :func:`~.elkin_neiman.top_two_flood` through the
available nodes, with only the centers' radii ``R_i + X_u`` set; every
message is a top-two (value, center) pair, O(log n) bits, CONGEST-legal.
The :class:`RunReport` keeps the *accounted* rounds
``phases x epochs x (R_1 + 2)`` (``accounted=True``); the rounds the
floods actually took (each epoch: its flood rounds plus one round to
elect and one to decide) and their messages are *measured* into
``extra["rounds_measured"]`` / ``extra["messages"]``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...randomness.shared import SharedRandomness
from ...randomness.source import RandomSource
from ...sim.graph import DistributedGraph
from ...sim.metrics import RunReport
from ...structures import Decomposition
from .elkin_neiman import top_two_flood

#: Bits per Bernoulli center election (a 16-bit threshold comparison).
ELECTION_BITS = 16

#: Big-endian weights folding ``ELECTION_BITS`` bits into an integer.
_ELECTION_WEIGHTS = np.left_shift(1, np.arange(ELECTION_BITS - 1, -1, -1),
                                  dtype=np.int64)


def election_threshold(epoch: int, logn: int, n: int) -> int:
    """A node is elected iff its ``ELECTION_BITS``-bit value is below
    this: probability ``min(1, 2^epoch log n / n)``."""
    prob = min(1.0, (2 ** epoch) * logn / n)
    return math.ceil(prob * (1 << ELECTION_BITS))


def election_values(source: RandomSource, nodes: np.ndarray) -> np.ndarray:
    """Each node's first ``ELECTION_BITS`` bits of ``source``, read
    big-endian as an integer (one :meth:`~RandomSource.bits_each`)."""
    return source.bits_each(nodes.tolist(), ELECTION_BITS) @ _ELECTION_WEIGHTS


def phase_epoch_decomposition(
    graph: DistributedGraph,
    elect: Callable[[np.ndarray, int, int, int], np.ndarray],
    radius_draw: Callable[[np.ndarray, int, int], np.ndarray],
    max_phases: int,
    epochs: int,
    cap: int,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """The phase/epoch carving loop shared by Theorems 3.6 and 3.7.

    Each epoch makes one call of each callback, over all of its nodes
    at once.

    Parameters
    ----------
    elect:
        ``elect(nodes, phase, epoch, epochs) -> bool[len(nodes)]`` — which
        of the available ``nodes`` (an int64 array, ascending) are
        centers?
    radius_draw:
        ``radius_draw(nodes, phase, epoch) -> int[len(nodes)]``, each in
        [1, cap]: the elected ``nodes``' radius draws.
    strict:
        Fail (return None) if nodes remain after ``max_phases``.
    """
    if max_phases < 1 or epochs < 1 or cap < 1:
        raise ConfigurationError("max_phases, epochs and cap must be >= 1")
    step = cap + 2  # base-radius decrement per epoch, > max X_u
    offsets, indices = graph.csr.offsets, graph.csr.indices
    live = np.ones(graph.n, dtype=bool)
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    trees: Dict[int, List[Tuple[int, int]]] = {}
    phase_log: List[Dict[str, int]] = []
    measured = {"rounds_measured": 0, "messages": 0}
    phases_run = 0

    for phase in range(max_phases):
        if not live.any():
            break
        phases_run += 1
        available = live.copy()
        set_aside = 0
        clustered_this_phase = 0
        for epoch in range(1, epochs + 1):
            if not available.any():
                break
            base = (epochs - epoch) * step
            nodes = np.flatnonzero(available)
            centers = nodes[elect(nodes, phase, epoch, epochs)]
            if not centers.size:
                continue
            radii = np.zeros(graph.n, dtype=np.int64)
            radii[centers] = base + radius_draw(centers, phase, epoch)
            m1, center, m2, rounds, messages = top_two_flood(
                offsets, indices, available, radii)
            measured["rounds_measured"] += rounds + 2
            measured["messages"] += messages
            reached = available & (center >= 0)
            joined = reached & (m1 - m2 > 1)
            set_aside += int(np.count_nonzero(reached & ~joined))
            available &= ~reached
            live &= ~joined
            new_clusters: Dict[int, Set[int]] = {}
            for v in np.flatnonzero(joined).tolist():
                new_clusters.setdefault(int(center[v]), set()).add(v)
            for c, members in new_clusters.items():
                cid = len(color_of)
                color_of[cid] = phase
                for v in members:
                    cluster_of[v] = cid
                trees[cid] = _spanning_tree_edges(graph, members, c)
                clustered_this_phase += len(members)
        phase_log.append({
            "phase": phase,
            "clustered": clustered_this_phase,
            "set_aside": set_aside,
        })
    leftovers = np.flatnonzero(live).tolist()

    report = RunReport(
        rounds=phases_run * epochs * (epochs * step + 2),
        accounted=True,
        model="CONGEST",
        notes=[
            f"phase/epoch carving: {phases_run} phases x {epochs} epochs x "
            f"O(R_1) = {epochs * step} rounds each; top-2 messages are "
            f"O(log n) bits"
        ],
    )
    extra: Dict[str, object] = {
        "unclustered": set(leftovers),
        "phases_run": phases_run,
        "phase_log": phase_log,
        "max_radius": epochs * step + cap,
        **measured,
    }
    if leftovers and strict:
        return None, report, extra
    if leftovers:
        next_color = (max(color_of.values()) + 1) if color_of else 0
        for v in leftovers:
            cid = len(color_of)
            cluster_of[v] = cid
            color_of[cid] = next_color
            trees[cid] = []
            next_color += 1
        report.annotate(f"{len(leftovers)} leftovers parked as singletons")
    decomposition = Decomposition(cluster_of=cluster_of, color_of=color_of,
                                  trees=trees).normalize_colors()
    return decomposition, report, extra


def _spanning_tree_edges(graph: DistributedGraph, members: Set[int],
                         center: int) -> List[Tuple[int, int]]:
    """BFS tree of G[members] rooted at the center (strong diameter)."""
    edges: List[Tuple[int, int]] = []
    seen = {center}
    frontier = [center]
    while frontier:
        nxt: List[int] = []
        for x in frontier:
            for y in graph.neighbors(x):
                if y in members and y not in seen:
                    seen.add(y)
                    edges.append((x, y))
                    nxt.append(y)
        frontier = nxt
    return edges


def shared_bits_needed(n: int, k: Optional[int] = None,
                       max_phases: Optional[int] = None,
                       epochs: Optional[int] = None,
                       cap: Optional[int] = None) -> int:
    """Shared-seed length Theorem 3.6 consumes for an n-node graph.

    poly(log n): (phases * epochs) source pairs, each k * m bits.
    """
    from ...randomness.kwise import KWiseSource

    k, max_phases, epochs, cap = _defaults(n, k, max_phases, epochs, cap)
    probe = KWiseSource(1, max(2, n), max(ELECTION_BITS, cap),
                        coefficients=[0])
    per_source = k * probe.field.m
    return 2 * max_phases * epochs * per_source


def _defaults(n: int, k: Optional[int], max_phases: Optional[int],
              epochs: Optional[int], cap: Optional[int]):
    logn = max(1, math.ceil(math.log2(max(2, n))))
    if k is None:
        k = max(8, logn * logn)  # Θ(log² n)-wise independence
    if max_phases is None:
        max_phases = max(4, 10 * logn)
    if epochs is None:
        epochs = logn + 1  # 2^epochs >= n: last epoch elects everyone
    if cap is None:
        cap = max(4, 2 * logn)
    return k, max_phases, epochs, cap


def shared_randomness_decomposition(
    graph: DistributedGraph,
    shared: Optional[SharedRandomness] = None,
    seed: int = 0,
    k: Optional[int] = None,
    max_phases: Optional[int] = None,
    epochs: Optional[int] = None,
    cap: Optional[int] = None,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Theorem 3.6 end-to-end: poly(log n) shared bits, no private bits.

    Returns (decomposition | None, report, extra); extra records the
    exact shared-seed length, the number of k-wise sources expanded, and
    the carving log.
    """
    n = graph.n
    k, max_phases, epochs, cap = _defaults(n, k, max_phases, epochs, cap)
    bits_per_node = max(ELECTION_BITS, cap)
    needed = shared_bits_needed(n, k, max_phases, epochs, cap)
    if shared is None:
        shared = SharedRandomness(needed, seed=seed)
    elif shared.seed_bits < needed:
        raise ConfigurationError(
            f"shared string has {shared.seed_bits} bits; Theorem 3.6 "
            f"needs {needed} at these parameters"
        )

    from ...randomness.kwise import KWiseSource

    probe = KWiseSource(1, max(2, n), bits_per_node, coefficients=[0])
    per_source = k * probe.field.m
    sources: Dict[Tuple[int, int, str], object] = {}

    def source_for(phase: int, epoch: int, purpose: str):
        key = (phase, epoch, purpose)
        if key not in sources:
            which = 0 if purpose == "elect" else 1
            index = (phase * epochs + (epoch - 1)) * 2 + which
            sources[key] = shared.expand_kwise(
                k, max(2, n), bits_per_node, offset=index * per_source)
        return sources[key]

    logn = max(1, math.ceil(math.log2(max(2, n))))

    def elect(nodes: np.ndarray, phase: int, epoch: int,
              total_epochs: int) -> np.ndarray:
        src = source_for(phase, epoch, "elect")
        return election_values(src, nodes) < election_threshold(
            epoch, logn, n)

    def radius_draw(nodes: np.ndarray, phase: int, epoch: int) -> np.ndarray:
        src = source_for(phase, epoch, "radius")
        return src.geometrics(nodes.tolist(), cap, 0)[0]

    decomposition, report, extra = phase_epoch_decomposition(
        graph, elect, radius_draw, max_phases, epochs, cap, strict=strict)
    report.randomness_bits = shared.seed_bits
    report.annotate(
        f"shared seed: {shared.seed_bits} bits; k={k}-wise expansion; "
        f"{len(sources)} sources actually expanded"
    )
    extra["shared_seed_bits"] = shared.seed_bits
    extra["shared_bits_consumed"] = len(sources) * per_source
    extra["kwise_k"] = k
    extra["sources_expanded"] = len(sources)
    return decomposition, report, extra
