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
Theorems 3.1, 3.6 and 3.7 and the A1 ablation all run it. The
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
    their live neighbors; each receiver keeps the best value per center
    and then its best two centers, ties broken by node index. The flood
    stops when no positive pair changes, which takes at most
    ``max(radii)`` rounds: a pair adopted in round k is worth at most
    ``max(radii) - k``.

    Returns ``(m1, center, m2, rounds, messages)``: the best value
    (``-1`` where no center reaches), its center (``-1`` likewise), the
    second-best value of a different center (``0`` where there is none),
    the number of rounds that sent anything, and the messages sent (one
    per sender and live neighbor per round).
    """
    n = len(radii)
    nodes = np.arange(n)
    src = np.repeat(nodes, np.diff(offsets))
    keep = live[src] & live[indices]
    src, dst = src[keep], indices[keep]
    m1 = np.where(live & (radii > 0), radii, -1)
    c1 = np.where(m1 >= 0, nodes, -1)
    m2 = np.full(n, -1, dtype=np.int64)
    c2 = np.full(n, -1, dtype=np.int64)
    senders = m1 > 0
    rounds = messages = 0
    while True:
        out = senders[src]
        if not out.any():
            break
        rounds += 1
        messages += int(np.count_nonzero(out))
        es, ed = src[out], dst[out]
        two = m2[es] > 0
        hit = np.zeros(n, dtype=bool)
        hit[ed] = True
        receivers = np.flatnonzero(hit)
        mine1 = receivers[c1[receivers] >= 0]
        mine2 = receivers[c2[receivers] >= 0]
        at = np.concatenate((ed, ed[two], mine1, mine2))
        value = np.concatenate((m1[es] - 1, m2[es][two] - 1, m1[mine1], m2[mine2]))
        center = np.concatenate((c1[es], c2[es][two], c1[mine1], c2[mine2]))
        # Best value per (receiver, center) ...
        order = np.lexsort((-value, center, at))
        at, value, center = at[order], value[order], center[order]
        first = np.ones(len(at), dtype=bool)
        first[1:] = (at[1:] != at[:-1]) | (center[1:] != center[:-1])
        at, value, center = at[first], value[first], center[first]
        # ... then the best two centers per receiver.
        order = np.lexsort((center, -value, at))
        at, value, center = at[order], value[order], center[order]
        head = np.ones(len(at), dtype=bool)
        head[1:] = at[1:] != at[:-1]
        second = np.zeros(len(at), dtype=bool)
        second[1:] = head[:-1] & ~head[1:]
        r = receivers
        was1, was_c1, was2, was_c2 = m1[r], c1[r], m2[r], c2[r]
        m1[at[head]], c1[at[head]] = value[head], center[head]
        m2[r], c2[r] = -1, -1
        m2[at[second]], c2[at[second]] = value[second], center[second]
        # A positive pair is only ever displaced by another positive
        # pair, so "a slot now holds a new positive pair" is exactly
        # "the pairs worth forwarding changed".
        senders = np.zeros(n, dtype=bool)
        senders[r] = (((m1[r] > 0) & ((m1[r] != was1) | (c1[r] != was_c1)))
                      | ((m2[r] > 0) & ((m2[r] != was2) | (c2[r] != was_c2))))
    return m1, c1, np.maximum(m2, 0), rounds, messages


def en_phase_loop(
    offsets: np.ndarray,
    indices: np.ndarray,
    labels: Sequence[Hashable],
    draw_radii: Callable[[List[Hashable], int], Dict[Hashable, int]],
    phases: int,
    cap: int,
    min_gap: int = 1,
) -> Tuple[Dict[Hashable, Tuple[int, Hashable]], Set[Hashable],
           Dict[str, int]]:
    """Run the phase loop on a CSR adjacency whose node ``i`` is
    ``labels[i]`` (a network's ``graph.csr`` arrays with its indices, or
    :func:`~repro.sim.batch.csr.nx_to_csr` of a cluster graph).

    ``draw_radii(nodes, phase)`` maps each live node's label to its
    Geometric(1/2) shift for the phase (the indirection is what lets
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
        live_labels = [labels[i] for i in at]
        drawn = draw_radii(live_labels, phase)
        radii = np.zeros(len(labels), dtype=np.int64)
        radii[at] = [drawn[v] for v in live_labels]
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

    def draw_radii(nodes: List[Hashable], phase: int) -> Dict[Hashable, int]:
        values, _used = source.geometrics(nodes, cap, bit_offset + phase * cap)
        return dict(zip(nodes, values.tolist()))

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
