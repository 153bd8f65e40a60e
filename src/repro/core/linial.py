"""Linial-style deterministic coloring: IDs → few colors in O(log* n).

Linial's 1987 papers [Lin87, Lin92] frame the whole deterministic-vs-
randomized question the paper revisits; his color-reduction technique is
the canonical example of what deterministic LOCAL algorithms *can* do
with nothing but identifiers. We implement two classics as engine
programs:

* :class:`ColorReduceCV` — Cole–Vishkin bit tricks on directed paths /
  cycles (each node's color vs. its successor's: position of the first
  differing bit, doubled plus the bit) — colors drop from b bits to
  O(log b) bits per round, reaching 6 colors in O(log* n) rounds; a
  final shift-down stage reaches 3.
* :func:`reduce_to_three_colors` — the full pipeline on a cycle/path
  graph, engine-measured, with the O(log* n) round count asserted by
  the experiments.

These are consumers of UIDs only — zero randomness — and serve as the
deterministic contrast class in the E9-style comparisons.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.batch.fast_engine import FastEngine
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST
from ..sim.metrics import AlgorithmResult
from ..sim.node import NodeContext, NodeProgram


def log_star(n: int) -> int:
    """Iterated logarithm (base 2), the complexity of color reduction."""
    count = 0
    value = float(max(1, n))
    while value > 2:
        value = math.log2(value)
        count += 1
    return count


def _first_difference(a: int, b: int) -> Tuple[int, int]:
    """Index and value of the lowest bit where a and b differ."""
    diff = a ^ b
    index = (diff & -diff).bit_length() - 1
    return index, (a >> index) & 1


class ColorReduceCV(NodeProgram):
    """Cole–Vishkin color reduction on oriented paths and cycles.

    Requires every node to have degree <= 2. The orientation is by
    index: each node's *successor* is its larger-index neighbor (for a
    cycle, the successor of the max node wraps to its smaller neighbor),
    so the successor relation is locally computable and consistent.

    Phase 1 (O(log* n) iterations): new_color = 2*i + bit where i is the
    first bit position where my color differs from my successor's (end
    nodes with no successor just shrink against 0). Stops when all
    colors are < 6. Phase 2 (3 iterations): shift-down + recolor removes
    colors 5, 4, 3 one at a time, ending with a proper 3-coloring.
    """

    def __init__(self, rounds_cap: int = 64):
        self.rounds_cap = rounds_cap

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _successor(ctx: NodeContext) -> Optional[int]:
        bigger = [u for u in ctx.neighbors if u > ctx.v]
        if bigger:
            return min(bigger)
        # Max node of a cycle: wrap to its smallest neighbor to keep the
        # successor function a bijection on the cycle. End of path: none.
        if ctx.degree == 2:
            return min(ctx.neighbors)
        return None

    def init(self, ctx: NodeContext) -> Dict:
        if ctx.degree > 2:
            raise ConfigurationError(
                "Cole–Vishkin reduction needs max degree 2"
            )
        ctx.state["color"] = ctx.uid
        ctx.state["stage"] = "reduce"
        ctx.state["shift_target"] = 5
        return {NodeProgram.BROADCAST: ctx.state["color"]}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        color = ctx.state["color"]
        successor = self._successor(ctx)

        if ctx.state["stage"] == "reduce":
            succ_color = inbox.get(successor, 0) if successor is not None else 0
            if successor is None:
                # Path endpoint: differ from an imaginary 0-colored
                # successor (or 1 if we are 0).
                succ_color = 0 if color != 0 else 1
            index, bit = _first_difference(color, succ_color)
            new_color = 2 * index + bit
            ctx.state["color"] = new_color
            # Everyone's colors shrink in lock-step; once 6 rounds of
            # log-shrink have passed, every color is < 6 for any n that
            # fits in memory (log* of 2^64 is 5). Switch stages together.
            if round_index >= min(self.rounds_cap, log_star(2 ** 64) + 2):
                ctx.state["stage"] = "shift"
            return {NodeProgram.BROADCAST: ctx.state["color"]}

        # Shift-down stage: remove colors 5, 4, 3 in three synchronized
        # sub-rounds. A node with the target color recolors to the
        # smallest color unused by its neighbors (both of them); other
        # nodes keep their color. Neighbor colors are in the inbox.
        neighbor_colors = set(inbox.values())
        target = ctx.state["shift_target"]
        if color == target:
            new_color = 0
            while new_color in neighbor_colors:
                new_color += 1
            ctx.state["color"] = new_color
        ctx.state["shift_target"] = target - 1
        if target == 3:
            ctx.finish(ctx.state["color"])
            return {}
        return {NodeProgram.BROADCAST: ctx.state["color"]}


def reduce_to_three_colors(graph: DistributedGraph) -> AlgorithmResult:
    """Run Cole–Vishkin to a 3-coloring on a path/cycle graph."""
    if graph.max_degree() > 2:
        raise ConfigurationError("reduce_to_three_colors needs a path/cycle")
    engine = FastEngine(graph, lambda _v: ColorReduceCV(), model=CONGEST,
                        max_rounds=200)
    return engine.run()
