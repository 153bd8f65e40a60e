"""(Δ+1)-vertex coloring — the paper's second running example.

* :class:`TrialColoring` — the classic randomized color-trial algorithm
  as a message-passing node program: every round each live node proposes
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

from ..randomness.source import RandomSource
from ..sim.batch.fast_engine import FastEngine
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST
from ..sim.metrics import AlgorithmResult, RunReport
from ..sim.node import NodeContext, NodeProgram
from ..structures import Decomposition

_TRY, _KEEP = "t", "k"


class TrialColoring(NodeProgram):
    """Randomized (deg+1) color trials with UID tiebreaks.

    Each node's palette is {0, ..., deg(v)}, so a free color always
    exists; the output is a proper coloring with at most Δ+1 colors.
    Two rounds per iteration: propose, then resolve.
    """

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["taken"] = set()       # colors finalized by neighbors
        ctx.state["live"] = set(ctx.neighbors)
        ctx.state["proposal"] = None
        ctx.state["nbr_proposals"] = {}
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        st = ctx.state
        for sender, message in inbox.items():
            if message[0] == _KEEP:
                st["taken"].add(message[1])
                st["live"].discard(sender)
            elif message[0] == _TRY:
                st["nbr_proposals"][sender] = (message[1], message[2])

        if round_index % 2 == 1:
            st["nbr_proposals"] = {}
            palette = [c for c in range(ctx.degree + 1)
                       if c not in st["taken"]]
            choice = palette[ctx.rand_uniform(len(palette))]
            st["proposal"] = choice
            return {u: (_TRY, choice, ctx.uid) for u in st["live"]}

        proposal = st["proposal"]
        if proposal is None:
            return {}
        conflict = any(
            color == proposal and uid > ctx.uid
            for color, uid in st["nbr_proposals"].values()
        )
        if proposal in st["taken"]:
            conflict = True
        if conflict:
            st["proposal"] = None
            return {}
        out = {u: (_KEEP, proposal) for u in st["live"]}
        ctx.finish(proposal)
        return out


def trial_coloring(graph: DistributedGraph, source: RandomSource,
                   max_rounds: int = 100_000) -> AlgorithmResult:
    """Run randomized color trials on the engine, CONGEST model."""
    engine = FastEngine(graph, lambda _v: TrialColoring(), source=source,
                        model=CONGEST, max_rounds=max_rounds)
    return engine.run()


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
