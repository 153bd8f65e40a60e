"""Maximal independent set — the paper's motivating problem (Linial '87).

Three algorithms, spanning the deterministic-vs-randomized landscape the
paper studies:

* :class:`LubyMIS` — the classic O(log n)-round randomized algorithm
  [Lub86, ABI86], written as a genuine message-passing
  :class:`~repro.sim.node.NodeProgram` (engine-measured rounds, CONGEST
  messages).
* :func:`slocal_greedy_mis` — the locality-1 SLOCAL greedy ([GKM17]'s
  example of why SLOCAL trivializes sequential problems).
* :func:`mis_via_decomposition` — the standard reduction: given a
  (c, d)-decomposition, process color classes sequentially; each cluster
  gathers its topology and the frozen boundary decisions and solves
  locally. O(c·(d+2)) rounds — with a poly(log n) decomposition, a
  poly(log n) deterministic MIS, which is exactly why decomposition is
  complete for the P-RLOCAL vs P-LOCAL question.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..randomness.source import RandomSource
from ..sim.batch.array import (
    ArrayContext,
    ArrayEngine,
    ArrayProgram,
    Sends,
    resolve_engine,
    tuple_message_bits,
)
from ..sim.batch.fast_engine import FastEngine
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST, message_bits
from ..sim.metrics import AlgorithmResult, RunReport
from ..sim.node import NodeContext, NodeProgram
from ..sim.slocal import SLocalSimulator, SLocalView
from ..structures import Decomposition

_PRIO, _IN, _OUT = "p", "i", "o"


class LubyMIS(NodeProgram):
    """Luby's MIS as a three-round-per-iteration node program.

    Iteration structure (round index mod 3):

    1. every undecided node draws a fresh priority and sends it to its
       undecided neighbors;
    2. a node that beats all received priorities joins the MIS and
       announces IN;
    3. neighbors of fresh IN nodes go OUT and announce it, so everyone
       prunes its undecided-neighbor set before the next iteration.

    Priorities are (random value, UID) pairs — the UID tiebreak makes
    simultaneous joins of adjacent nodes impossible even on unlucky draws.
    Messages are O(log n) bits; the program is CONGEST-legal.
    """

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["alive"] = set(ctx.neighbors)
        ctx.state["decided"] = None
        ctx.state["prio"] = None
        ctx.state["nbr_prio"] = {}
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        st = ctx.state
        # Absorb announcements regardless of the phase we are in.
        for sender, message in inbox.items():
            kind = message[0]
            if kind == _IN:
                st["alive"].discard(sender)
                if st["decided"] is None:
                    st["decided"] = False
            elif kind == _OUT:
                st["alive"].discard(sender)
            elif kind == _PRIO:
                st["nbr_prio"][sender] = (message[1], message[2])

        phase = round_index % 3
        if phase == 1:
            if st["decided"] is False:
                ctx.finish(False)
                return {}
            st["nbr_prio"] = {}
            value = ctx.rand_uniform(ctx.n ** 2)
            st["prio"] = (value, ctx.uid)
            out = {u: (_PRIO, value, ctx.uid) for u in st["alive"]}
            return out
        if phase == 2:
            if st["decided"] is not None or st["prio"] is None:
                return {}
            mine = st["prio"]
            rivals = [st["nbr_prio"][u] for u in st["alive"]
                      if u in st["nbr_prio"]]
            if all(mine > r for r in rivals):
                st["decided"] = True
                return {u: (_IN,) for u in st["alive"]}
            return {}
        # phase == 0: propagate OUT decisions and finish decided nodes.
        if st["decided"] is True:
            ctx.finish(True)
            return {}
        if st["decided"] is False:
            # Tell undecided neighbors we are out, then finish next pass.
            return {u: (_OUT,) for u in st["alive"]}
        if not st["alive"]:
            # All neighbors decided without claiming us: we join.
            ctx.finish(True)
            return {}
        return {}


# Node statuses of the array-native Luby program. UNDECIDED nodes are
# still iterating; WINNER/LOSER are decided-but-unfinished for exactly
# one round (decision round -> announcement absorbed), mirroring the
# window between st["decided"] flipping and ctx.finish in LubyMIS.
_UNDECIDED, _WINNER, _LOSER, _DONE_IN, _DONE_OUT = 0, 1, 2, 3, 4

#: (_IN,) and (_OUT,) announcements have the same fixed encoded size.
_ANNOUNCE_BITS = message_bits((_IN,))
assert _ANNOUNCE_BITS == message_bits((_OUT,))


class ArrayLubyMIS(ArrayProgram):
    """:class:`LubyMIS` as whole-round array operations.

    The three-round iteration becomes three vectorized phase handlers
    over per-node status/priority arrays. The key invariant making the
    per-node ``alive`` sets unnecessary: a node's alive set at every
    *send* moment equals its currently-undecided neighbors — undecided
    nodes never announce, every decided node's IN/OUT announcement is
    absorbed exactly one round after its decision, and the silent
    all-neighbors-decided join can never happen adjacent to a live node.
    Priorities are drawn from the same per-node streams at the same
    cursors as the node program, so outputs, reports, and randomness
    bills are bit-identical (``tests/test_array_engine.py``).
    """

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        self.status = np.zeros(ctx.size, dtype=np.int8)
        self.prio = np.zeros(ctx.size, dtype=np.int64)
        return None

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        status = self.status
        phase = round_index % 3
        if phase == 1:
            # OUT announcements from last round's losers land now; the
            # announcers themselves finish.
            losers = np.flatnonzero(status == _LOSER)
            if losers.size:
                status[losers] = _DONE_OUT
                ctx.finish(losers, [False] * losers.size)
            drawers = np.flatnonzero(status == _UNDECIDED)
            if not drawers.size:
                return None
            values = ctx.rand_uniform_each(drawers, ctx.n ** 2)
            self.prio[drawers] = values
            alive = ctx.neighbor_count(status == _UNDECIDED)
            bits = tuple_message_bits(message_bits(_PRIO),
                                      ctx.int_message_bits(values),
                                      ctx.uid_message_bits[drawers])
            return ctx.fanout(drawers, alive[drawers], bits)
        if phase == 2:
            undecided = status == _UNDECIDED
            rival_val, rival_uid = ctx.lex_neighbor_max2(
                self.prio, ctx.uids, undecided)
            # "mine > every rival" on (value, uid) pairs: beat the
            # lexicographic max (UIDs are distinct, so no full ties).
            win = undecided & (
                (rival_val < 0)
                | (self.prio > rival_val)
                | ((self.prio == rival_val) & (ctx.uids > rival_uid)))
            winners = np.flatnonzero(win)
            if not winners.size:
                return None
            status[winners] = _WINNER
            alive = ctx.neighbor_count(status == _UNDECIDED)
            return ctx.fanout(winners, alive[winners], _ANNOUNCE_BITS)
        # phase == 0: IN announcements land; winners finish, their
        # undecided neighbors become losers (announcing OUT), and an
        # undecided node whose alive set emptied joins the MIS.
        pre_undecided = status == _UNDECIDED
        beaten = ctx.neighbor_count(status == _WINNER) > 0
        # Alive sets right now: neighbors undecided at the start of this
        # round (new losers included — their OUT only lands next round).
        alive = ctx.neighbor_count(pre_undecided)
        winners = np.flatnonzero(status == _WINNER)
        if winners.size:
            status[winners] = _DONE_IN
            ctx.finish(winners, [True] * winners.size)
        joiners = np.flatnonzero(pre_undecided & ~beaten & (alive == 0))
        if joiners.size:
            status[joiners] = _DONE_IN
            ctx.finish(joiners, [True] * joiners.size)
        new_losers = np.flatnonzero(pre_undecided & beaten)
        if not new_losers.size:
            return None
        status[new_losers] = _LOSER
        return ctx.fanout(new_losers, alive[new_losers], _ANNOUNCE_BITS)


def luby_mis(graph: Optional[DistributedGraph], source: RandomSource,
             max_rounds: int = 100_000,
             engine: Optional[str] = None,
             faults=None, csr=None) -> AlgorithmResult:
    """Run Luby's algorithm in the CONGEST model.

    The engine follows the run: under an active ``faults`` plan (a
    :class:`~repro.sim.batch.faults.RoundFaultPlan`), or with UIDs too
    wide for ArrayEngine, the :class:`LubyMIS` node program steps per
    node on FastEngine, and otherwise the whole-round
    :class:`ArrayLubyMIS` runs on the
    :class:`~repro.sim.batch.array.ArrayEngine`. Both produce
    bit-identical outputs and reports; ``engine="array"`` pins the
    latter, see :func:`~repro.sim.batch.array.resolve_engine`. A
    crashed node's output stays ``None``, and :func:`is_valid_mis` then
    reports the survivors' independence/maximality honestly.

    ``csr`` reuses a frozen :class:`~repro.sim.batch.csr.CSRGraph`
    across runs (``graph`` may then be ``None`` — the million-node
    path).
    """
    if resolve_engine(engine, faults, graph, csr) == "array":
        result = ArrayEngine(graph, ArrayLubyMIS(), source=source,
                             model=CONGEST, max_rounds=max_rounds,
                             csr=csr).run()
    else:
        result = FastEngine(graph, lambda _v: LubyMIS(), source=source,
                            model=CONGEST, max_rounds=max_rounds,
                            csr=csr, faults=faults).run()
    # Isolated nodes never hear from anyone and join immediately — make
    # sure outputs are booleans everywhere. Under faults, crashed nodes
    # legitimately die with output None.
    if faults is None or not faults.active:
        assert all(isinstance(o, bool) for o in result.outputs.values())
    return result


def slocal_greedy_mis(graph: DistributedGraph,
                      order: Optional[list] = None) -> AlgorithmResult:
    """Greedy MIS with SLOCAL locality 1: join unless a processed
    neighbor already joined."""

    def decide(view: SLocalView) -> bool:
        for u, d in view.nodes.items():
            if d == 1 and view.records.get(u) is True:
                return False
        return True

    return SLocalSimulator(graph, locality=1, decide=decide).run(order)


def mis_via_decomposition(
    graph: DistributedGraph,
    decomposition: Decomposition,
) -> Tuple[Dict[int, bool], RunReport]:
    """Deterministic MIS from a network decomposition.

    Color classes are processed in increasing color order; all clusters
    of one color are solved in parallel (they are non-adjacent, so their
    greedy choices cannot conflict), seeing the frozen decisions of
    earlier colors. Rounds: per color, clusters gather and decide in
    O(diameter + 2) rounds.
    """
    decided: Dict[int, bool] = {}
    clusters = decomposition.clusters()
    by_color: Dict[int, list] = {}
    for cid, members in clusters.items():
        by_color.setdefault(decomposition.color_of[cid], []).append(members)

    max_diameter = 0
    for color in sorted(by_color):
        for members in by_color[color]:
            max_diameter = max(max_diameter, graph.weak_diameter(members))
            for v in sorted(members, key=graph.uid):
                if any(decided.get(u) for u in graph.neighbors(v)):
                    decided[v] = False
                else:
                    decided[v] = True

    colors = decomposition.num_colors()
    report = RunReport(
        rounds=colors * (max_diameter + 2),
        accounted=True,
        model="LOCAL",
        notes=[
            f"MIS via decomposition: {colors} colors x "
            f"(max diameter {max_diameter} + 2) rounds"
        ],
    )
    return decided, report


def is_valid_mis(graph: DistributedGraph, flags: Dict[int, bool]) -> bool:
    """Centralized MIS validity (checkers.MISChecker is the local one)."""
    selected: Set[int] = {v for v, f in flags.items() if f}
    for u, v in graph.edges():
        if u in selected and v in selected:
            return False
    for v in graph.nodes():
        if v not in selected and not any(
                u in selected for u in graph.neighbors(v)):
            return False
    return True
