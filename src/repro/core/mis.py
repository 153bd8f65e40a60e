"""Maximal independent set — the paper's motivating problem (Linial '87).

Three algorithms, spanning the deterministic-vs-randomized landscape the
paper studies:

* :func:`luby_mis` — the classic O(log n)-round randomized algorithm
  [Lub86, ABI86], run as the whole-round :class:`ArrayLubyMIS` on the
  array engine (engine-measured rounds, CONGEST messages).
* :func:`slocal_greedy_mis` — the locality-1 SLOCAL greedy ([GKM17]'s
  example of why SLOCAL trivializes sequential problems).
* :func:`mis_via_decomposition` — the standard reduction: given a
  (c, d)-decomposition, process color classes sequentially; each cluster
  gathers its topology and the frozen boundary decisions and solves
  locally. O(c·(d+2)) rounds — with a poly(log n) decomposition, a
  poly(log n) deterministic MIS, which is exactly why decomposition is
  complete for the P-RLOCAL vs P-LOCAL question.

The last two apply the one greedy rule of :mod:`repro.core.slocal_reduction`
(:func:`~repro.core.slocal_reduction.greedy_mis_choice`); the last runs
its one color-class sweep.
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
    check_engine,
    tuple_message_bits,
)
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST, message_bits
from ..sim.metrics import AlgorithmResult, RunReport
from ..sim.slocal import SLocalSimulator
from ..structures import Decomposition
from .slocal_reduction import color_class_sweep, greedy_mis_choice

_PRIO, _IN, _OUT = "p", "i", "o"


# Node statuses of the array-native Luby program. UNDECIDED nodes are
# still iterating; WINNER/LOSER are decided-but-unfinished for exactly
# one round (decision round -> announcement absorbed), the window
# between a node's decision and its finish. CRASHED nodes stopped
# stepping under a fault plan.
_UNDECIDED, _WINNER, _LOSER, _DONE_IN, _DONE_OUT, _CRASHED = 0, 1, 2, 3, 4, 5

#: (_IN,) and (_OUT,) announcements have the same fixed encoded size.
_ANNOUNCE_BITS = message_bits((_IN,))
assert _ANNOUNCE_BITS == message_bits((_OUT,))


class ArrayLubyMIS(ArrayProgram):
    """Luby's MIS, three rounds per iteration, as whole-round arrays.

    Iteration (round index mod 3): 1. every undecided node draws a
    priority and sends it to its alive set (the neighbors it has heard
    no IN/OUT from); 2. a node beating every priority it received joins
    and announces IN; 3. neighbors of fresh IN nodes go OUT and announce
    it, and an undecided node whose alive set emptied joins. Priorities
    are (random value, UID) pairs, O(log n) bits, drawn per node at the
    per-node cursors, so outputs, reports and randomness bills equal a
    per-node program's bit for bit.

    Without a fault plan a node's alive set at every *send* moment
    equals its currently-undecided neighbors — undecided nodes never
    announce, every decided node's IN/OUT announcement is absorbed
    exactly one round after its decision, and the silent
    all-neighbors-decided join can never happen adjacent to a live node
    — so no per-node sets are kept. Lost, cut or never-sent (crashed)
    announcements break that invariant, so under a plan the program
    keeps the alive sets per arc.
    """

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        self.status = np.zeros(ctx.size, dtype=np.int8)
        self.prio = np.zeros(ctx.size, dtype=np.int64)
        #: JDS-order alive arcs, only under a fault plan.
        self.alive_arcs: Optional[np.ndarray] = None
        if ctx.crashed is not None:
            self.alive_arcs = np.ones(ctx.indices.size, dtype=bool)
        return None

    def _hear(self, ctx: ArrayContext, announcers=None) -> None:
        """Under a plan: drop the heard ``announcers`` from the alive
        sets, then retire the crashed nodes (this round's receipts still
        read their last sends)."""
        if self.alive_arcs is not None:
            if announcers is not None:
                self.alive_arcs &= ~ctx.heard_from(announcers)
            self.status[ctx.crashed] = _CRASHED

    def _alive(self, ctx: ArrayContext, undecided: np.ndarray) -> np.ndarray:
        """Per node, the size of its alive set (``undecided``: the
        undecided nodes, which make up the alive sets without a plan)."""
        if self.alive_arcs is None:
            return ctx.neighbor_count(undecided)
        return ctx.arc_counts(self.alive_arcs)

    def _announce(self, ctx: ArrayContext, senders: np.ndarray, bits,
                  alive: Optional[np.ndarray] = None) -> Sends:
        """``senders`` each send one message to their alive sets."""
        if self.alive_arcs is not None:
            return ctx.send_along(senders, self.alive_arcs, bits)
        if alive is None:
            alive = self._alive(ctx, self.status == _UNDECIDED)
        return ctx.fanout(senders, alive[senders], bits)

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        status = self.status
        phase = round_index % 3
        if phase == 1:
            # OUT announcements from last round's losers land now; the
            # announcers themselves finish.
            self._hear(ctx, status == _LOSER)
            losers = np.flatnonzero(status == _LOSER)
            if losers.size:
                status[losers] = _DONE_OUT
                ctx.finish(losers, [False] * losers.size)
            drawers = np.flatnonzero(status == _UNDECIDED)
            if not drawers.size:
                return None
            values = ctx.rand_uniform_each(drawers, ctx.n ** 2)
            self.prio[drawers] = values
            bits = tuple_message_bits(message_bits(_PRIO),
                                      ctx.int_message_bits(values),
                                      ctx.uid_message_bits[drawers])
            return self._announce(ctx, drawers, bits)
        if phase == 2:
            rival_val, rival_uid = ctx.lex_neighbor_max2(
                self.prio, ctx.uids, status == _UNDECIDED)
            self._hear(ctx)
            undecided = status == _UNDECIDED
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
            return self._announce(ctx, winners, _ANNOUNCE_BITS)
        # phase == 0: IN announcements land; winners finish, their
        # undecided neighbors become losers (announcing OUT), and an
        # undecided node whose alive set emptied joins the MIS.
        beaten = ctx.neighbor_count(status == _WINNER) > 0
        self._hear(ctx, status == _WINNER)
        pre_undecided = status == _UNDECIDED
        # Alive sets right now: neighbors undecided at the start of this
        # round (new losers included — their OUT only lands next round).
        alive = self._alive(ctx, pre_undecided)
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
        return self._announce(ctx, new_losers, _ANNOUNCE_BITS, alive)


def luby_mis(graph: Optional[DistributedGraph], source: RandomSource,
             max_rounds: int = 100_000,
             engine: Optional[str] = None,
             faults=None, csr=None) -> AlgorithmResult:
    """Run Luby's algorithm (:class:`ArrayLubyMIS`) in the CONGEST model.

    Every run is an :class:`~repro.sim.batch.array.ArrayEngine` run;
    ``engine`` may only name ``"array"`` (see
    :func:`~repro.sim.batch.array.check_engine`). ``faults`` is an
    optional :class:`~repro.sim.batch.faults.RoundFaultPlan`: a crashed
    node's output stays ``None``, and :func:`is_valid_mis` then reports
    the survivors' independence/maximality honestly.

    ``csr`` reuses a frozen :class:`~repro.sim.batch.csr.CSRGraph`
    across runs (``graph`` may then be ``None`` — the million-node
    path).
    """
    check_engine(engine)
    result = ArrayEngine(graph, ArrayLubyMIS(), source=source, model=CONGEST,
                         max_rounds=max_rounds, csr=csr, faults=faults).run()
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
    return SLocalSimulator(
        graph, locality=1,
        decide=lambda view: greedy_mis_choice(view.outputs, view.neighbors()),
    ).run(order)


def mis_via_decomposition(
    graph: DistributedGraph,
    decomposition: Decomposition,
) -> Tuple[Dict[int, bool], RunReport]:
    """Deterministic MIS from a network decomposition.

    Color classes are processed in increasing color order
    (:func:`~repro.core.slocal_reduction.color_class_sweep`); all
    clusters of one color are solved in parallel (they are non-adjacent,
    so their greedy choices cannot conflict), seeing the frozen
    decisions of earlier colors. Rounds: per color, clusters gather and
    decide in O(diameter + 2) rounds.
    """
    decided, max_diameter = color_class_sweep(
        graph, decomposition,
        lambda v, outputs: greedy_mis_choice(outputs, graph.neighbors(v)))
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
