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
changes. This flood is the only top-two computation in the package;
Theorems 3.1, 3.6 and 3.7 and the A1 ablation all run it. It sorts
nothing: each pair is packed into one int64 key (a larger key is the
better pair), and a round is two ``np.maximum.at`` scatter passes over
the senders' arcs, one for the best pair and one for the best pair of
another center. The
:class:`RunReport` keeps the *accounted* ``phases * (cap + 2)`` rounds
(``accounted=True``: the paper's expression, not an engine count), while
the rounds and messages the flood actually took are *measured* and land
in ``extra["rounds_measured"]`` / ``extra["messages"]``; the measured
rounds never exceed the accounted ones, because a flood round only
happens while some shifted value is still positive.
"""

from __future__ import annotations

import math
from typing import (Callable, Dict, Hashable, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from ...errors import ConfigurationError
from ...randomness.source import RandomSource
from ...sim.graph import DistributedGraph
from ...sim.metrics import RunReport
from ...structures import Decomposition


def default_phases(n: int) -> int:
    """The 10 log n phase count from the proof of Lemma 3.3."""
    return max(4, 10 * max(1, math.ceil(math.log2(max(2, n)))))


def default_cap(n: int) -> int:
    """Geometric-radius cap: 10 log n bits per draw suffice w.h.p."""
    return max(4, 10 * max(1, math.ceil(math.log2(max(2, n)))))


def top_two_flood(
    offsets: np.ndarray,
    indices: np.ndarray,
    live: np.ndarray,
    radii: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
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

    Returns ``(m1, center, m2, rounds, messages)``: the best value
    (``-1`` where no center reaches), its center (``-1`` likewise), the
    second-best value of a different center (``0`` where there is none),
    the number of rounds that sent anything, and the messages sent (one
    per sender and live neighbor per round).
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
    rounds = messages = 0
    while True:
        out = senders[src]
        es = src[out]
        if not es.size:
            break
        if rounds == top:  # cannot happen: see the bound above
            raise RuntimeError(
                f"top_two_flood still changing after max(radii) = {top} "
                f"rounds")
        rounds += 1
        messages += es.size
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
    return m1, c1, key2 // step, rounds, messages


def en_phase_loop(
    offsets: np.ndarray,
    indices: np.ndarray,
    labels: Sequence[Hashable],
    draw_radii: Callable[[List[Hashable], int], np.ndarray],
    phases: int,
    cap: int,
    min_gap: int = 1,
) -> Tuple[Dict[Hashable, Tuple[int, Hashable]], Set[Hashable],
           Dict[str, int]]:
    """Run the phase loop on a CSR adjacency whose node ``i`` is
    ``labels[i]`` (a network's ``graph.csr`` arrays with its indices, or
    a cluster graph's contracted CSR from
    :func:`~repro.core.ruling_sets.cluster_adjacency` with its centers).

    ``draw_radii(nodes, phase)`` returns the live nodes' Geometric(1/2)
    shifts for the phase, an int64 array aligned with the ``nodes`` list
    of their labels (the indirection is what lets
    Lemma 3.3 feed gathered cluster pools and Theorem 3.5 feed k-wise
    bits into the same construction). A node joins its best center iff
    ``m1 - m2 > min_gap``; ``min_gap=1`` is the paper's gap rule, and the
    A1 ablation relaxes it to 0.

    Returns ``(assignment, remaining, measured)``: assignment maps a label
    to ``(phase_color, center)``, ``remaining`` holds labels unclustered
    after all phases, and ``measured`` counts the flood's
    ``rounds_measured`` (each phase: its flood rounds, plus one round to
    draw and one to decide) and ``messages``.
    """
    if phases < 1 or cap < 1:
        raise ConfigurationError("phases and cap must be >= 1")
    live = np.ones(len(labels), dtype=bool)
    assignment: Dict[Hashable, Tuple[int, Hashable]] = {}
    measured = {"rounds_measured": 0, "messages": 0}
    for phase in range(phases):
        if not live.any():
            break
        at = np.flatnonzero(live)
        radii = np.zeros(len(labels), dtype=np.int64)
        radii[at] = draw_radii([labels[i] for i in at.tolist()], phase)
        m1, center, m2, rounds, messages = top_two_flood(
            offsets, indices, live, radii)
        measured["rounds_measured"] += rounds + 2
        measured["messages"] += messages
        joins = np.flatnonzero(live & (m1 - m2 > min_gap))
        for i, c in zip(joins.tolist(), center[joins].tolist()):
            assignment[labels[i]] = (phase, labels[c])
        live[joins] = False
    remaining = {labels[i] for i in np.flatnonzero(live).tolist()}
    return assignment, remaining, measured


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
    """
    if finish not in ("strict", "singletons"):
        raise ConfigurationError(f"unknown finish mode {finish!r}")
    n = graph.n
    phases = phases if phases is not None else default_phases(n)
    cap = cap if cap is not None else default_cap(n)

    consumed_before = source.bits_consumed

    def draw_radii(nodes: List[Hashable], phase: int) -> np.ndarray:
        return source.geometrics(nodes, cap, bit_offset + phase * cap)[0]

    assignment, remaining, measured = en_phase_loop(
        graph.csr.offsets, graph.csr.indices, graph.nodes(), draw_radii,
        phases, cap)

    report = RunReport(
        rounds=phases * (cap + 2),
        accounted=True,
        model="CONGEST",
        randomness_bits=source.bits_consumed - consumed_before,
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

    cluster_ids: Dict[Tuple[int, Hashable], int] = {}
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    for v, (phase, center) in assignment.items():
        key = (phase, center)
        cid = cluster_ids.setdefault(key, len(cluster_ids))
        cluster_of[v] = cid
        color_of[cid] = phase
    if remaining:
        next_color = (max(color_of.values()) + 1) if color_of else 0
        for v in sorted(remaining):
            cid = max(cluster_of.values(), default=-1) + 1
            cluster_of[v] = cid
            color_of[cid] = next_color
            next_color += 1
        report.annotate(f"{len(remaining)} leftovers parked as singleton clusters")
    decomposition = Decomposition(cluster_of=cluster_of,
                                  color_of=color_of).normalize_colors()
    return decomposition, report, extra
