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

:func:`phase_epoch_decomposition` is the one construction behind
Theorems 3.6 and 3.7. Node v reads the shared string of its owner,
``strings[owner[v]]``, and :func:`seed_schedule` expands each string
into one k-wise source per (owner, phase, epoch, purpose). Theorem 3.6
has one owner, the global string; Theorem 3.7 has one per gathering
cluster, seeded by its pool (:mod:`.sparse_bits`). Each election and
radius read fans out to the owners' sources through
:func:`~.elkin_neiman.split_reads`.

The loop is :func:`~.elkin_neiman.carve` with epochs and elections:
per epoch one top-two flood through the available nodes, with only the
centers' radii ``R_i + X_u`` set; every message is a top-two (value,
center) pair, O(log n) bits, CONGEST-legal.
The :class:`RunReport` keeps the *accounted* rounds
``phases x epochs x (R_1 + 2)`` (``accounted=True``); the rounds the
floods actually took (each epoch: its flood rounds plus one round to
elect and one to decide) and their messages are *measured* into
``extra["rounds_measured"]`` / ``extra["messages"]``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...randomness.finite_field import min_degree_for
from ...randomness.kwise import KWiseSource
from ...randomness.shared import SharedRandomness
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition
from .elkin_neiman import assemble, carve, split_reads

#: Bits per Bernoulli center election (a 16-bit threshold comparison).
ELECTION_BITS = 16

#: Big-endian weights folding ``ELECTION_BITS`` bits into an integer.
_ELECTION_WEIGHTS = np.left_shift(1, np.arange(ELECTION_BITS - 1, -1, -1),
                                  dtype=np.int64)


def phase_epoch_decomposition(
    graph: DistributedGraph,
    strings: Mapping[int, SharedRandomness],
    owner: np.ndarray,
    k: int,
    max_phases: int,
    epochs: int,
    cap: int,
    strict: bool = True,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """The phase/epoch carving of Theorems 3.6 and 3.7: one
    :func:`~.elkin_neiman.carve` of ``epochs`` epochs per phase on G,
    plus a BFS tree of G[cluster] per cluster (strong diameter).

    Node ``v`` reads its election and radius bits from the shared string
    ``strings[owner[v]]``: :func:`seed_schedule` expands it into one
    k-wise source per (owner, phase, epoch, purpose), on first use, and
    each read fans out to the owners' sources through
    :func:`~.elkin_neiman.split_reads`. Theorem 3.6 has one owner, the
    global string; Theorem 3.7 has one per gathering cluster, its pool.
    ``extra["sources_expanded"]`` counts the sources expanded.

    Parameters
    ----------
    owner:
        ``int64[n]``: each node's key into ``strings``.
    strict:
        Fail (return None) if nodes remain after ``max_phases``.
    """
    n = graph.n
    logn = ceil_log2(n)
    _per_source, expand = seed_schedule(n, k, epochs, cap)
    sources: Dict[Tuple[int, int, int, str], KWiseSource] = {}

    def read(nodes: np.ndarray, phase: int, epoch: int, purpose: str,
             sample: Callable[[KWiseSource, np.ndarray], np.ndarray]
             ) -> np.ndarray:
        def from_owner(key: int, group: np.ndarray) -> np.ndarray:
            at = (key, phase, epoch, purpose)
            if at not in sources:
                sources[at] = expand(strings[key], phase, epoch, purpose)
            return sample(sources[at], group)
        return split_reads(nodes, owner[nodes], from_owner)

    def elect(nodes: np.ndarray, phase: int, epoch: int) -> np.ndarray:
        # Elected iff the first ELECTION_BITS bits, read big-endian, are
        # below the threshold: probability min(1, 2^epoch log n / n).
        values = read(nodes, phase, epoch, "elect", lambda src, group:
                      src.bits_each(group.tolist(), ELECTION_BITS)
                      @ _ELECTION_WEIGHTS)
        prob = min(1.0, (2 ** epoch) * logn / n)
        return values < math.ceil(prob * (1 << ELECTION_BITS))

    def radius_draw(nodes: np.ndarray, phase: int, epoch: int) -> np.ndarray:
        return read(nodes, phase, epoch, "radius", lambda src, group:
                    src.geometrics(group.tolist(), cap, 0)[0])

    step = cap + 2  # base-radius decrement per epoch, > max X_u
    assignment, leftovers, measured, phase_log = carve(
        graph.csr.offsets, graph.csr.indices, radius_draw, max_phases, cap,
        epochs=epochs, elect=elect)
    phases_run = len(phase_log)

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
        "sources_expanded": len(sources),
    }
    if leftovers and strict:
        return None, report, extra
    decomposition = assemble(assignment, leftovers)
    # One tree per cluster, rooted at its center; a leftover is its own
    # center, so its singleton's tree is empty.
    decomposition.trees = {}
    for cid, group in decomposition.clusters().items():
        v = next(iter(group))
        decomposition.trees[cid] = _spanning_tree_edges(
            graph, group, assignment.get(v, (None, v))[1])
    if leftovers:
        report.annotate(f"{len(leftovers)} leftovers parked as singletons")
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


def seed_schedule(n: int, k: int, epochs: int, cap: int):
    """Theorem 3.6's seed schedule: ``(per_source, expand)``.

    Each (phase, epoch) reads two k-wise sources, one for elections and
    one for radii, each from its own ``per_source``-bit slice of a
    shared string: k coefficients of the field that addresses
    ``max(2, n)`` nodes x ``max(ELECTION_BITS, cap)`` bits.
    ``expand(shared, phase, epoch, purpose)`` expands one of them, from
    slice ``(phase * epochs + epoch - 1) * 2 + (purpose != "elect")``.
    """
    bits_per_node = max(ELECTION_BITS, cap)
    per_source = k * min_degree_for(max(2, n) * bits_per_node + 1)

    def expand(shared: SharedRandomness, phase: int, epoch: int,
               purpose: str) -> KWiseSource:
        index = (phase * epochs + epoch - 1) * 2 + (purpose != "elect")
        return shared.expand_kwise(k, max(2, n), bits_per_node,
                                   offset=index * per_source)
    return per_source, expand


def shared_bits_needed(n: int, k: Optional[int] = None,
                       max_phases: Optional[int] = None,
                       epochs: Optional[int] = None,
                       cap: Optional[int] = None) -> int:
    """Shared-seed length Theorem 3.6 consumes for an n-node graph.

    poly(log n): (phases * epochs) source pairs, each k * m bits.
    """
    k, max_phases, epochs, cap = _defaults(n, k, max_phases, epochs, cap)
    return 2 * max_phases * epochs * seed_schedule(n, k, epochs, cap)[0]


def _defaults(n: int, k: Optional[int], max_phases: Optional[int],
              epochs: Optional[int], cap: Optional[int]):
    logn = ceil_log2(n)
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
    per_source = seed_schedule(n, k, epochs, cap)[0]
    needed = 2 * max_phases * epochs * per_source
    if shared is None:
        shared = SharedRandomness(needed, seed=seed)
    elif shared.seed_bits < needed:
        raise ConfigurationError(
            f"shared string has {shared.seed_bits} bits; Theorem 3.6 "
            f"needs {needed} at these parameters"
        )

    decomposition, report, extra = phase_epoch_decomposition(
        graph, {0: shared}, np.zeros(n, dtype=np.int64), k, max_phases,
        epochs, cap, strict=strict)
    sources = extra["sources_expanded"]
    report.randomness_bits = shared.seed_bits
    report.annotate(
        f"shared seed: {shared.seed_bits} bits; k={k}-wise expansion; "
        f"{sources} sources actually expanded"
    )
    extra["shared_seed_bits"] = shared.seed_bits
    extra["shared_bits_consumed"] = sources * per_source
    extra["kwise_k"] = k
    return decomposition, report, extra
