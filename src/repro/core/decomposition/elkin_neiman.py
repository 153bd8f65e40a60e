"""Random-shift network decomposition of Elkin–Neiman [EN16] / MPX [MPX13].

This is the randomized construction at the heart of Lemma 3.3,
Theorem 3.6 and Theorem 4.2. The paper's phrasing (proof of Lemma 3.3):

* The construction runs Θ(log n) *phases*; phase i colors some
  non-adjacent family of clusters with color i and removes them.
* Each live node v draws r_v from the Geometric(1/2) distribution
  (the discrete analog of [EN16]'s exponential shifts, footnote 8).
* Every live node u looks at the two best values of
  ``r_v - dist(v, u)`` among live nodes v whose shifted ball reaches u
  (value >= 0). With m1, m2 the best and second best (m2 = 0 when there
  is no second), u joins the best center's cluster iff ``m1 - m2 > 1``;
  otherwise u stays for the next phase.

Clusters formed in one phase are pairwise non-adjacent and each is
connected with radius <= max r_v (see [EN16, Lemma 4], or the gap
argument: walking one hop toward the best center increases m1 - m2), so
one color per phase is legal and the strong diameter is O(log n).
A live node is clustered with constant probability per phase
([EN16, Claim 6], memorylessness), so Θ(log n) phases suffice w.h.p.

Distances are measured through *live* nodes only (removed nodes no
longer relay), which is what a message-passing implementation measures
and what makes the connectivity argument self-contained.

Each phase is one :func:`top_two_flood` over the live nodes' CSR
adjacency: every node forwards its best two (value, center) pairs, the
O(log n)-bit messages of the CONGEST implementation, until nothing
changes. It sorts nothing: each pair is packed into one int64 key (a
larger key is the better pair), and a round is two ``np.maximum.at``
scatter passes over the senders' arcs, one for the best pair and one
for the best pair of another center.

:func:`carve`, the one phase loop, is its only caller: every
random-shift construction runs it, and it counts their measured rounds.
:func:`assemble` numbers every carving's clusters.

Many small runs batch: :func:`elkin_neiman_batch` carves the disjoint
union of its runs' graphs (:func:`~repro.sim.batch.csr.disjoint_union`)
in one :func:`carve`, so a sweep pays numpy's per-call overhead once per
phase, not once per trial and phase. Each graph is a block of the
union, and what a run would see alone stays per block: its phase's
centers are drawn from its own source (only when it has centers, so its
ledger is its own), its flood rounds, messages and phase log are counted
from its own senders (``np.bincount`` over their block ids), and it
stops logging phases once all its nodes are clustered. Block offsets
keep the order of centers within a block, so the packed flood keys break
ties as the run alone would; their int64 bound is checked against the
union's n, which is stricter but never binds at table sizes.
:func:`elkin_neiman` is a batch of one. The
:class:`RunReport` keeps the *accounted* ``phases * (cap + 2)`` rounds
(``accounted=True``: the paper's expression, not an engine count), while
the rounds and messages the flood actually took are *measured* and land
in ``extra["rounds_measured"]`` / ``extra["messages"]``; the measured
rounds never exceed the accounted ones, because a flood round only
happens while some shifted value is still positive.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from ...errors import ConfigurationError
from ...randomness.source import RandomSource
from ...sim.batch.csr import disjoint_union
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition

#: A flood's per-graph counts: an int, or one per block of a union.
Counts = Union[int, np.ndarray]

#: What :func:`carve` returns for one graph: ``(assignment, leftovers,
#: measured, log)``.
Carving = Tuple[Dict[int, Tuple[int, int]], List[int], Dict[str, int],
                List[Dict[str, int]]]


def default_phases(n: int) -> int:
    """The 10 log n phase count from the proof of Lemma 3.3."""
    return max(4, 10 * ceil_log2(n))


def default_cap(n: int) -> int:
    """Geometric-radius cap: 10 log n bits per draw suffice w.h.p."""
    return max(4, 10 * ceil_log2(n))


def top_two_flood(
    offsets: np.ndarray,
    indices: np.ndarray,
    live: np.ndarray,
    radii: np.ndarray,
    blocks: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Counts, Counts]:
    """Every live node's two best ``(r_c - d(c, u), c)`` pairs, by flooding.

    ``offsets``/``indices`` are a CSR adjacency; ``live`` (bool[n]) masks
    the nodes that take part — distances run through live nodes only —
    and ``radii`` (int64[n]) holds each center's shift. A live node with
    a radius <= 0 is no center. Each round, the live nodes whose positive
    pairs changed in the previous round send them, decremented by one, to
    their live neighbors; each receiver keeps its best two pairs of
    different centers, ties broken toward the smaller center. The flood
    stops when no positive pair changes, which takes at most
    ``max(radii)`` rounds: a pair adopted in round k is worth at most
    ``max(radii) - k``.

    A pair is packed into one int64 key, ``value * (n + 1) + (n - c)``
    (0: no pair), so that a larger key is the better pair and decrementing
    the value subtracts ``n + 1``. A round is then two scatter-max passes
    over the senders' arcs: ``np.maximum.at`` of the incoming best keys
    into a copy of the first slot gives each node its best pair, and a
    second ``np.maximum.at`` of the incoming keys whose center differs
    from that best pair's, into the kept pair of another center, gives
    the second slot. A
    :class:`ConfigurationError` is raised if ``max(radii) * (n + 1) + n``
    does not fit in an int64.

    ``blocks`` (``int64[B + 1]``, from 0 to n) cuts the nodes into
    blocks that no arc crosses — the disjoint union of B graphs, as
    :func:`~repro.sim.batch.csr.disjoint_union` builds it. Each block
    then floods exactly as it would alone: within a block the packing
    orders centers as the block's own numbering does, so every
    tie-break is kept. The int64 bound is then the union's n: stricter
    than a block's own, but it never binds at table sizes.

    Returns ``(m1, center, m2, rounds, messages)``: the best value
    (``-1`` where no center reaches), its center (``-1`` likewise), the
    second-best value of a different center (``0`` where there is none),
    the number of rounds that sent anything, and the messages sent (one
    per sender and live neighbor per round). With ``blocks`` the last
    two are ``int64[B]`` arrays, one count per block.
    """
    n = len(radii)
    step = n + 1
    top = int(radii.max()) if n else 0
    if top > (np.iinfo(np.int64).max - n) // step:
        raise ConfigurationError(
            f"top_two_flood packs value * (n + 1) + n into an int64: a "
            f"radius of {top} on {n} nodes exceeds the bound "
            f"{(np.iinfo(np.int64).max - n) // step}")
    nodes = np.arange(n)
    src = np.repeat(nodes, np.diff(offsets))
    keep = live[src] & live[indices]
    src, dst = src[keep], indices[keep]
    key1 = np.where(live & (radii > 0), radii * step + (n - nodes), 0)
    key2 = np.zeros(n, dtype=np.int64)
    senders = key1 > step
    sent: List[np.ndarray] = []  # each round's sending arcs, by tail
    while True:
        out = senders[src]
        es = src[out]
        if not es.size:
            break
        if len(sent) == top:  # cannot happen: see the bound above
            raise RuntimeError(
                f"top_two_flood still changing after max(radii) = {top} "
                f"rounds")
        sent.append(es)
        ed = dst[out]
        # Best pair: the node's own first slot or an incoming first slot
        # (a second slot is always worse than its sender's first).
        offer1 = key1[es] - step
        new1 = key1.copy()
        np.maximum.at(new1, ed, offer1)
        # Second slot: the best kept or incoming pair of another center.
        # Of the kept pairs that is the old first slot if the best
        # center changed (it beats the old second), else the old second.
        center = new1 % step
        new2 = np.where(key1 % step == center, key2, key1)
        two = key2[es] > step
        at = np.concatenate((ed, ed[two]))
        offer = np.concatenate((offer1, key2[es][two] - step))
        other = offer % step != center[at]
        np.maximum.at(new2, at[other], offer[other])
        # Both slots only grow, and a positive pair is only ever
        # displaced by another positive pair, so "a slot grew past
        # value 0" is exactly "the pairs worth forwarding changed".
        senders = ((new1 > np.maximum(key1, step))
                   | (new2 > np.maximum(key2, step)))
        key1, key2 = new1, new2
    reached = key1 > 0
    m1 = np.where(reached, key1 // step, -1)
    c1 = np.where(reached, n - key1 % step, -1)
    if blocks is None:
        return (m1, c1, key2 // step, len(sent),
                sum(arcs.size for arcs in sent))
    # Count per block from the senders' block ids. A block falls silent
    # for good once it sends nothing, so its rounds are one past the
    # last round in which it sent.
    count = blocks.size - 1
    block = np.repeat(np.arange(count), np.diff(blocks))
    tails = block[np.concatenate([np.empty(0, dtype=np.int64)] + sent)]
    rounds = np.zeros(count, dtype=np.int64)
    np.maximum.at(rounds, tails, np.repeat(
        np.arange(1, len(sent) + 1), [arcs.size for arcs in sent]))
    return (m1, c1, key2 // step, rounds,
            np.bincount(tails, minlength=count))


class _Flood(NamedTuple):
    """What one epoch's flood in :func:`carve` decided."""

    phase: int
    centers: np.ndarray  #: ascending
    reached: np.ndarray  #: ascending: the nodes that left the phase
    joined: np.ndarray  #: ascending: the reached nodes that joined
    center_of: np.ndarray  #: each joined node's center
    rounds: Counts
    messages: Counts


def carve(
    offsets: np.ndarray,
    indices: np.ndarray,
    draw: Callable[[np.ndarray, int, int], np.ndarray],
    phases: int,
    cap: int,
    epochs: int = 1,
    elect: Optional[Callable[[np.ndarray, int, int], np.ndarray]] = None,
    min_gap: int = 1,
    blocks: Optional[np.ndarray] = None,
) -> Union[Carving, List[Carving]]:
    """The one random-shift phase loop, on a CSR adjacency.

    Each phase runs epochs ``i = 1 .. epochs`` over the nodes still
    available in it: the available nodes that ``elect(nodes, phase, i)``
    picks (a bool mask over the ascending ``nodes``; all of them when
    ``elect`` is None) are centers, shifted by ``(epochs - i) * (cap +
    2) + draw(centers, phase, i)``, and one :func:`top_two_flood` runs
    through the available nodes. Every reached node leaves the phase and
    joins its best center iff ``m1 - m2 > min_gap`` (the paper's gap
    rule is 1; A1 relaxes it to 0). Elkin–Neiman is one epoch in which
    every node is a center.

    Returns ``(assignment, leftovers, measured, log)``: node ->
    ``(phase, center)`` in join order, the unclustered nodes
    (ascending), the floods' ``rounds_measured`` (per epoch with
    centers: its rounds plus one to draw and one to decide) and
    ``messages``, and one ``{"phase", "clustered", "set_aside"}`` per
    phase run.

    ``blocks`` (``int64[B + 1]``) carves a disjoint union of B graphs in
    one pass (:func:`~repro.sim.batch.csr.disjoint_union`): the return
    value is then a list of B such tuples, block ``b``'s in its own
    node numbering (union node minus ``blocks[b]``), each equal to what
    ``carve`` returns on that graph alone. ``draw`` and ``elect`` see
    the union's nodes, so a caller whose draws differ per graph splits
    them by block (:func:`elkin_neiman_batch` reads each block from its
    own source). Rounds, messages and the log are counted per block; a
    block with no live node left logs no further phase.
    """
    if phases < 1 or epochs < 1 or cap < 1:
        raise ConfigurationError("phases, epochs and cap must be >= 1")
    n = offsets.size - 1
    bounds = np.array([0, n]) if blocks is None else blocks
    # One block needs no per-block counting inside the flood.
    split = bounds if bounds.size > 2 else None
    live = np.ones(n, dtype=bool)
    floods: List[_Flood] = []
    ran = 0
    for phase in range(phases):
        if not live.any():
            break
        ran = phase + 1
        available = live.copy()
        for epoch in range(1, epochs + 1):
            if not available.any():
                break
            centers = np.flatnonzero(available)
            if elect is not None:
                centers = centers[elect(centers, phase, epoch)]
                if not centers.size:
                    continue
            radii = np.zeros(n, dtype=np.int64)
            radii[centers] = ((epochs - epoch) * (cap + 2)
                              + draw(centers, phase, epoch))
            m1, center, m2, rounds, sent = top_two_flood(
                offsets, indices, available, radii, split)
            reached = center >= 0  # the flood runs through available nodes
            joined = np.flatnonzero(reached & (m1 - m2 > min_gap))
            floods.append(_Flood(phase, centers, np.flatnonzero(reached),
                                joined, center[joined], rounds, sent))
            available &= ~reached
            live[joined] = False
    carvings = _tally(floods, np.flatnonzero(live), ran, bounds)
    return carvings[0] if blocks is None else carvings


def _tally(floods: List[_Flood], left: np.ndarray, ran: int,
           bounds: np.ndarray) -> List[Carving]:
    """Each block's carving from the floods of :func:`carve`, which ran
    ``ran`` phases and left the nodes ``left`` unclustered.

    All per-block counting happens here, once per carving, in a few
    array passes over the floods' stacked node sets.
    """
    count = bounds.size - 1
    block = np.repeat(np.arange(count), np.diff(bounds))
    local = np.arange(bounds[-1]) - bounds[block]  # node id in its block
    phases = [f.phase for f in floods]

    def stack(field: str, keys) -> Tuple[np.ndarray, np.ndarray]:
        """Every flood's ``field`` nodes, stacked, and their floods' keys."""
        arrays = [getattr(f, field) for f in floods]
        return (np.concatenate([np.empty(0, dtype=np.int64)] + arrays),
                np.repeat(np.asarray(keys, dtype=np.int64),
                          [a.size for a in arrays]))

    def table(nodes: np.ndarray, keys: np.ndarray, rows: int) -> np.ndarray:
        """How many ``nodes`` fall in each (key, block) cell."""
        return np.bincount(keys * count + block[nodes],
                           minlength=rows * count).reshape(rows, count)

    # A block's rounds and messages are its own floods' counts; it pays
    # the draw and decide rounds only in the epochs it had centers.
    shape = (len(floods), count)
    had = table(*stack("centers", range(len(floods))), len(floods)) > 0
    rounds = np.array([f.rounds for f in floods], dtype=np.int64)
    measured = np.where(had, rounds.reshape(shape) + 2, 0).sum(axis=0)
    messages = np.array([f.messages for f in floods], dtype=np.int64)
    messages = messages.reshape(shape).sum(axis=0)
    # Join order: epoch by epoch, ascending within an epoch.
    joined, joined_in = stack("joined", phases)
    centers, _ = stack("center_of", phases)
    assignments: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(count)]
    for b, v, c, phase in zip(block[joined].tolist(), local[joined].tolist(),
                              local[centers].tolist(), joined_in.tolist()):
        assignments[b][v] = (phase, c)
    # A block logs every phase it entered with a live node: up to the
    # phase of its last join, or every phase run if it has leftovers.
    clustered = table(joined, joined_in, ran)
    set_aside = (table(*stack("reached", phases), ran) - clustered).tolist()
    clustered = clustered.tolist()
    last = np.full(count, -1)
    np.maximum.at(last, block[joined], joined_in)
    last[block[left]] = ran - 1
    leftovers = np.split(local[left], np.searchsorted(left, bounds[1:-1]))
    return [(assignments[b], leftovers[b].tolist(),
             {"rounds_measured": int(measured[b]),
              "messages": int(messages[b])},
             [{"phase": p, "clustered": clustered[p][b],
               "set_aside": set_aside[p][b]} for p in range(last[b] + 1)])
            for b in range(count)]


def assemble(assignment: Dict[Hashable, Tuple[int, Hashable]],
             leftovers: Iterable[Hashable] = ()
             ) -> Tuple[Dict[Hashable, int], Dict[int, int]]:
    """Number a carving's clusters: ``(cluster_of, color_of)``.

    One cluster per ``(color, center)`` value of ``assignment`` (a node
    -> ``(phase, center)`` map, as :func:`carve` returns it), numbered in
    the order the clusters first gain a member and colored by the phase.
    Each leftover, in ascending order, then becomes a singleton cluster
    with a fresh color past every color used so far.
    """
    cluster_of: Dict[Hashable, int] = {}
    color_of: Dict[int, int] = {}
    ids: Dict[Tuple[int, Hashable], int] = {}
    for v, key in assignment.items():
        cid = cluster_of[v] = ids.setdefault(key, len(ids))
        color_of[cid] = key[0]
    fresh = max(color_of.values(), default=-1) + 1
    for color, v in enumerate(sorted(leftovers), start=fresh):
        cluster_of[v] = len(color_of)
        color_of[len(color_of)] = color
    return cluster_of, color_of


def elkin_neiman_batch(
    runs: Sequence[Tuple[DistributedGraph, RandomSource]],
    phases: Optional[int] = None,
    cap: Optional[int] = None,
    finish: str = "strict",
    bit_offset: int = 0,
    min_gap: int = 1,
) -> List[Tuple[Optional[Decomposition], RunReport, Dict[str, object]]]:
    """Elkin–Neiman on each ``(graph, source)`` run: one :func:`carve`
    over the disjoint union of the graphs.

    Returns one ``(decomposition | None, report, extra)`` per run, in
    order, each exactly what :func:`elkin_neiman` returns for that run
    alone — outputs, report and the source's ledger. Every phase's
    centers are split by graph, and a graph's own source is read only
    when that graph has centers, so each ledger stays the run's own; a
    source may therefore serve one run only. The runs share ``phases``
    and ``cap`` (by default each graph's :func:`default_phases` and
    :func:`default_cap`, which must then agree). ``min_gap`` is the gap
    rule: a node joins its best center iff ``m1 - m2 > min_gap``; the
    paper's rule is 1, and ablation A1 relaxes it to 0.
    """
    if finish not in ("strict", "singletons"):
        raise ConfigurationError(f"unknown finish mode {finish!r}")
    graphs = [graph for graph, _source in runs]
    sources = [source for _graph, source in runs]
    if len({id(source) for source in sources}) < len(sources):
        raise ConfigurationError(
            "elkin_neiman_batch needs one source per run: a shared source "
            "would meter every run's draws in one ledger")
    shared = {(phases if phases is not None else default_phases(g.n),
               cap if cap is not None else default_cap(g.n)) for g in graphs}
    if len(shared) > 1:
        raise ConfigurationError(
            f"elkin_neiman_batch runs share phases and cap; the graphs' "
            f"defaults differ: {sorted(shared)}")
    if not runs:
        return []
    ((phases, cap),) = shared

    offsets, indices, bounds = disjoint_union(
        [(g.csr.offsets, g.csr.indices) for g in graphs])
    consumed_before = [source.bits_consumed for source in sources]

    def draw(centers: np.ndarray, phase: int, _epoch: int) -> np.ndarray:
        cuts = np.searchsorted(centers, bounds).tolist()
        # Only a block with centers reads its source.
        return np.concatenate([
            sources[b].geometrics((centers[lo:hi] - bounds[b]).tolist(), cap,
                                  bit_offset + phase * cap)[0]
            for b, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if lo < hi])

    carvings = carve(offsets, indices, draw, phases, cap, min_gap=min_gap,
                     blocks=bounds)
    return [_en_result(carving, phases, cap, finish,
                       source.bits_consumed - before)
            for carving, source, before
            in zip(carvings, sources, consumed_before)]


def _en_result(carving: Carving, phases: int, cap: int, finish: str,
               bits: int) -> Tuple[Optional[Decomposition], RunReport,
                                   Dict[str, object]]:
    """One run's ``(decomposition | None, report, extra)`` from its carving."""
    assignment, remaining, measured, _log = carving
    report = RunReport(
        rounds=phases * (cap + 2),
        accounted=True,
        model="CONGEST",
        randomness_bits=bits,
        notes=[
            f"EN accounting: phases({phases}) * (cap({cap}) + 2) rounds; "
            f"messages carry top-2 (value, center) pairs = O(log n) bits"
        ],
    )
    extra: Dict[str, object] = {
        "assignment": assignment,
        "unclustered": set(remaining),
        "phases": phases,
        "cap": cap,
        **measured,
    }

    if remaining and finish == "strict":
        return None, report, extra

    cluster_of, color_of = assemble(assignment, remaining)
    if remaining:
        report.annotate(f"{len(remaining)} leftovers parked as singleton clusters")
    decomposition = Decomposition(cluster_of=cluster_of,
                                  color_of=color_of).normalize_colors()
    return decomposition, report, extra


def elkin_neiman(
    graph: DistributedGraph,
    source: RandomSource,
    phases: Optional[int] = None,
    cap: Optional[int] = None,
    finish: str = "strict",
    bit_offset: int = 0,
) -> Tuple[Optional[Decomposition], RunReport, Dict[str, object]]:
    """Elkin–Neiman decomposition of a :class:`DistributedGraph`.

    Parameters
    ----------
    source:
        Randomness source; phase p draws node v's radius from bit block
        ``bit_offset + p * cap`` of v's stream, so phases use disjoint,
        fresh bits (as the proof requires).
    finish:
        ``"strict"`` — return ``None`` decomposition if any node is left
        unclustered (used when measuring success probability);
        ``"singletons"`` — park leftovers in fresh singleton clusters with
        fresh colors (a usable decomposition whose quality degrades
        gracefully, used when composing).
    Returns
    -------
    (decomposition | None, report, extra) where extra records the
    ``assignment`` (node -> ``(phase, center)``), the ``unclustered``
    set, and the flood's ``rounds_measured`` and ``messages``; the
    report's ``rounds`` stays the accounted ``phases * (cap + 2)``.
    This is :func:`elkin_neiman_batch` on one run.
    """
    return elkin_neiman_batch([(graph, source)], phases=phases, cap=cap,
                              finish=finish, bit_offset=bit_offset)[0]
