"""Linial-style deterministic coloring: IDs → few colors in O(log* n).

Linial's 1987 papers [Lin87, Lin92] frame the whole deterministic-vs-
randomized question the paper revisits; his color-reduction technique is
the canonical example of what deterministic LOCAL algorithms *can* do
with nothing but identifiers. We implement two classics on the array
engine:

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
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.batch.array import (
    INT64_MAX,
    ArrayContext,
    ArrayEngine,
    ArrayProgram,
    Sends,
)
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST
from ..sim.metrics import AlgorithmResult


def log_star(n: int) -> int:
    """Iterated logarithm (base 2), the complexity of color reduction."""
    count = 0
    value = float(max(1, n))
    while value > 2:
        value = math.log2(value)
        count += 1
    return count


def _cole_vishkin(color: np.ndarray, successor: np.ndarray) -> np.ndarray:
    """One reduction step for every node: ``2 * i + bit``, ``i`` the
    lowest bit where its color differs from its successor's (from an
    imaginary successor colored 0, or 1 if its own color is 0, where it
    has none) and ``bit`` its own bit there.

    ``color`` is ``int64`` or, holding UIDs past int64, ``object``
    (Python ints, which ``^``, ``&`` and ``>>`` act on alike). The lowest
    differing bit is a power of two, so its float64 exponent is exact."""
    theirs = np.where(successor >= 0, color[successor], color == 0)
    diff = color ^ theirs
    index = np.frexp((diff & -diff).astype(np.float64))[1].astype(np.int64) - 1
    bit = ((color >> index) & 1).astype(np.int64)
    return 2 * index + bit


class ColorReduceCV(ArrayProgram):
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
    Every node broadcasts its color every round until the last.
    """

    def __init__(self, rounds_cap: int = 64):
        self.rounds_cap = rounds_cap

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        if ctx.size and int(ctx.degrees.max()) > 2:
            raise ConfigurationError(
                "Cole–Vishkin reduction needs max degree 2"
            )
        if ctx.crashed is not None:
            # Every node reads its successor's last broadcast, heard or not.
            raise ConfigurationError("ColorReduceCV runs without faults")
        nbr = ctx.indices
        self.owner = np.repeat(ctx.all_nodes, ctx.degrees)
        upper = ctx.neighbor_min(np.where(nbr > self.owner, nbr, INT64_MAX))
        # Max node of a cycle: wrap to its smallest neighbor to keep the
        # successor function a bijection on the cycle. End of path: none.
        self.successor = np.where(
            upper < INT64_MAX, upper,
            np.where(ctx.degrees == 2, ctx.neighbor_min(nbr), -1))
        if ctx.uid_of is None:
            self.color = np.array(ctx.uids)
        else:
            self.color = np.array(ctx.uid_values(ctx.uids), dtype=object)
        # Everyone's colors shrink in lock-step; once 6 rounds of
        # log-shrink have passed, every color is < 6 for any n that fits
        # in memory (log* of 2^64 is 5). The stages switch together.
        self.reduce_rounds = max(1, min(self.rounds_cap,
                                        log_star(2 ** 64) + 2))
        return ctx.broadcast(ctx.all_nodes, ctx.uid_message_bits)

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        if round_index <= self.reduce_rounds:
            self.color = _cole_vishkin(self.color, self.successor)
            return ctx.broadcast(ctx.all_nodes,
                                 ctx.int_message_bits(self.color))
        # Shift-down stage: remove colors 5, 4, 3 in three synchronized
        # rounds. A node with the target color recolors to the smallest
        # color its (at most two) neighbors did not broadcast last round.
        target = 5 - (round_index - self.reduce_rounds - 1)
        color = self.color
        theirs = color[ctx.indices]
        free = np.zeros(ctx.size, dtype=np.int64)
        for _ in range(2):
            taken = np.zeros(ctx.size, dtype=bool)
            taken[self.owner[theirs == free[self.owner]]] = True
            free += taken
        self.color = np.where(color == target, free, color)
        if target == 3:
            ctx.finish(ctx.all_nodes, self.color)
            return None
        return ctx.broadcast(ctx.all_nodes, ctx.int_message_bits(self.color))


def reduce_to_three_colors(graph: DistributedGraph) -> AlgorithmResult:
    """Run Cole–Vishkin to a 3-coloring on a path/cycle graph."""
    if graph.max_degree() > 2:
        raise ConfigurationError("reduce_to_three_colors needs a path/cycle")
    return ArrayEngine(graph, ColorReduceCV(), model=CONGEST,
                       max_rounds=200).run()
