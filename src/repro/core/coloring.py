"""(Δ+1)-vertex coloring — the paper's second running example.

* :class:`TrialColoring` — the classic randomized color-trial algorithm
  as a whole-round array program: every round each live node proposes
  a uniform color from its remaining palette and keeps it unless a
  conflicting neighbor with a higher (UID) tiebreak proposed the same.
  O(log n) rounds w.h.p., CONGEST messages.
* :func:`coloring_via_decomposition` — deterministic coloring through a
  network decomposition (color classes sequentially, greedy inside each
  cluster against the frozen boundary), the other canonical consumer of
  the paper's complete problem.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..randomness.source import RandomSource
from ..sim.batch.array import (
    ArrayContext,
    ArrayEngine,
    ArrayProgram,
    Sends,
    tuple_message_bits,
)
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST, message_bits
from ..sim.metrics import AlgorithmResult, RunReport
from ..structures import Decomposition

_TRY, _KEEP = "t", "k"
_TRY_BITS, _KEEP_BITS = message_bits(_TRY), message_bits(_KEEP)


class TrialColoring(ArrayProgram):
    """Randomized (deg+1) color trials with UID tiebreaks.

    Each node's palette is {0, ..., deg(v)} minus the colors its
    finished neighbors kept, so a free color always exists; the output
    is a proper coloring with at most Δ+1 colors. Two rounds per
    iteration: on odd rounds every live node draws a uniform index into
    its palette and sends ``(_TRY, color, uid)`` to its live neighbors;
    on even rounds a node whose color no live neighbor with a larger UID
    also proposed keeps it, sends ``(_KEEP, color)`` to its live
    neighbors and finishes.

    A node's live neighbors are exactly its unfinished ones (a keeper's
    announcement lands before the next proposal), so no per-node sets
    are kept. The proposal round is one read of per-node bounds at the
    per-node cursors in node order, so outputs, reports and the
    randomness ledger equal the per-node program's bit for bit.
    """

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        self.color = np.full(ctx.size, -1, dtype=np.int64)  # -1: live
        self.proposal = np.zeros(ctx.size, dtype=np.int64)
        #: The node each CSR-order arc leaves from.
        self.owner = np.repeat(ctx.all_nodes, ctx.degrees)
        return None

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        live = self.color < 0
        nodes = np.flatnonzero(live)
        live_neighbors = ctx.neighbor_count(live)
        if round_index % 2:
            choice = self._propose(ctx, nodes)
            bits = tuple_message_bits(_TRY_BITS, ctx.int_message_bits(choice),
                                      ctx.uid_message_bits[nodes])
            return ctx.fanout(nodes, live_neighbors[nodes], bits)
        keepers = nodes[~self._outbid(ctx, live)[nodes]]
        choice = self.proposal[keepers]
        bits = tuple_message_bits(_KEEP_BITS, ctx.int_message_bits(choice))
        sends = ctx.fanout(keepers, live_neighbors[keepers], bits)
        self.color[keepers] = choice
        ctx.finish(keepers, choice)
        return sends

    def _propose(self, ctx: ArrayContext, nodes: np.ndarray) -> np.ndarray:
        """Each listed node's uniform pick from its palette.

        The colors taken from a node's palette, sorted, are ``t_0 < t_1
        < ...``; ``t_j - j`` free colors lie below ``t_j``. So the
        palette's ``i``-th color is ``i`` plus the number of ``j`` with
        ``t_j - j <= i``: one ``searchsorted`` over the (node, t_j - j)
        keys."""
        owner, degrees = self.owner, ctx.degrees
        kept = self.color[ctx.indices]
        arcs = (kept >= 0) & (self.color[owner] < 0) & (kept <= degrees[owner])
        width = int(degrees.max()) + 2
        taken = np.unique(owner[arcs] * width + kept[arcs])
        holder = taken // width
        rank = np.arange(taken.size) - np.searchsorted(holder, holder)
        keys = taken - rank  # holder * width + (t_j - j)
        first = np.searchsorted(keys, nodes * width)
        palette = degrees[nodes] + 1 - (
            np.searchsorted(keys, (nodes + 1) * width) - first)
        pick = ctx.rand_uniform_each(nodes, palette)
        choice = pick + np.searchsorted(keys, nodes * width + pick,
                                        side="right") - first
        self.proposal[nodes] = choice
        return choice

    def _outbid(self, ctx: ArrayContext, live: np.ndarray) -> np.ndarray:
        """Per node: did a live neighbor with a larger UID propose the
        same color?"""
        owner, nbr = self.owner, ctx.indices
        proposal, uids = self.proposal, ctx.uids
        arcs = (live[owner] & live[nbr] & (proposal[nbr] == proposal[owner])
                & (uids[nbr] > uids[owner]))
        outbid = np.zeros(ctx.size, dtype=bool)
        outbid[owner[arcs]] = True
        return outbid


def trial_coloring(graph: DistributedGraph, source: RandomSource,
                   max_rounds: int = 100_000) -> AlgorithmResult:
    """Run randomized color trials on the array engine, CONGEST model."""
    return ArrayEngine(graph, TrialColoring(), source=source, model=CONGEST,
                       max_rounds=max_rounds).run()


def coloring_via_decomposition(
    graph: DistributedGraph,
    decomposition: Decomposition,
) -> Tuple[Dict[int, int], RunReport]:
    """Deterministic (Δ+1)-coloring from a network decomposition.

    Same-color clusters are non-adjacent, so they may greedily color in
    parallel against the frozen earlier classes; within a cluster the
    scan is by UID. Every node sees at most deg(v) conflicting neighbors
    so the palette {0..deg(v)} always has a free color.
    """
    assigned: Dict[int, int] = {}
    by_color: Dict[int, list] = {}
    for cid, members in decomposition.clusters().items():
        by_color.setdefault(decomposition.color_of[cid], []).append(members)

    max_diameter = 0
    for color in sorted(by_color):
        for members in by_color[color]:
            max_diameter = max(max_diameter, graph.weak_diameter(members))
            for v in sorted(members, key=graph.uid):
                used = {assigned[u] for u in graph.neighbors(v)
                        if u in assigned}
                choice = 0
                while choice in used:
                    choice += 1
                assigned[v] = choice

    colors = decomposition.num_colors()
    report = RunReport(
        rounds=colors * (max_diameter + 2),
        accounted=True,
        model="LOCAL",
        notes=[
            f"coloring via decomposition: {colors} cluster colors x "
            f"(max diameter {max_diameter} + 2) rounds"
        ],
    )
    return assigned, report


def is_proper_coloring(graph: DistributedGraph, colors: Dict[int, int],
                       palette_size: Optional[int] = None) -> bool:
    """Centralized proper-coloring validity."""
    for v in graph.nodes():
        if v not in colors:
            return False
        if palette_size is not None and not 0 <= colors[v] < palette_size:
            return False
    return all(colors[u] != colors[v] for u, v in graph.edges())
