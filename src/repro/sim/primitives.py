"""Classic CONGEST communication primitives as node programs.

The paper's constructions lean on three textbook subroutines — Lemma 3.2
"a simple flooding of the name of nodes in R", "a simple upcast on the
tree", and the BFS cluster-growing of Theorem 4.2. This module provides
them as genuine engine programs so their measured costs (depth + O(1)
rounds, O(log n)-bit messages) back the accounted figures used by the
orchestrated pipelines.

* :class:`FloodMin` — every node learns the minimum UID within a given
  radius (radius rounds; the building block of center adoption);
* :class:`BFSTree` — builds a BFS tree rooted at marked nodes: every
  node learns (root uid, parent, depth), ties to the smaller root UID;
* :func:`convergecast_sum` — upcast an aggregate along a BFS tree to the
  root (depth rounds), demonstrating the Lemma 3.2 bit-gathering cost.

:class:`ArrayFloodMin` and :class:`ArrayBFSForest` are the whole-round
array-program equivalents for the
:class:`~repro.sim.batch.array.ArrayEngine` (bit-identical outputs and
reports); :func:`flood_min` and :func:`build_bfs_forest` run them
unless a fault plan is active, which needs the per-node programs on
FastEngine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .batch.array import (
    INT64_MAX,
    ArrayContext,
    ArrayEngine,
    ArrayProgram,
    Sends,
    resolve_engine,
    tuple_message_bits,
)
from .batch.fast_engine import FastEngine
from .graph import DistributedGraph
from .messages import CONGEST
from .metrics import AlgorithmResult
from .node import NodeContext, NodeProgram


class FloodMin(NodeProgram):
    """Learn the minimum UID within ``radius`` hops (radius rounds)."""

    def __init__(self, radius: int):
        if radius < 0:
            raise ConfigurationError("radius must be >= 0")
        self.radius = radius

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["best"] = ctx.uid
        if self.radius == 0:
            ctx.finish(ctx.uid)
            return {}
        return {NodeProgram.BROADCAST: ctx.uid}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        for uid in inbox.values():
            if uid < ctx.state["best"]:
                ctx.state["best"] = uid
        if round_index >= self.radius:
            ctx.finish(ctx.state["best"])
            return {}
        # Re-broadcast every round, improved or not: neighbors joining
        # late still need it. The message is O(log n) bits, so this
        # stays CONGEST-legal.
        return {NodeProgram.BROADCAST: ctx.state["best"]}


class ArrayFloodMin(ArrayProgram):
    """:class:`FloodMin` as whole-round array operations.

    One segment-min over the CSR edge list per round replaces n inbox
    scans, and the every-round re-broadcast is a standing broadcast that
    re-measures only the nodes whose minimum moved; engine-parity
    (outputs and full report) with FloodMin under FastEngine is asserted
    in ``tests/test_array_engine.py``.
    """

    def __init__(self, radius: int):
        if radius < 0:
            raise ConfigurationError("radius must be >= 0")
        self.radius = radius
        self.best: Optional[np.ndarray] = None

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        self.best = ctx.uids.copy()
        if self.radius == 0:
            ctx.finish(ctx.all_nodes, self.best)
            return None
        return ctx.standing_broadcast(self.best)

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        # What neighbors broadcast last round is their current best: it
        # only changes below, after this aggregation.
        nbr_best = ctx.gather_neighbor_min(self.best)
        changed = np.flatnonzero(nbr_best < self.best)
        self.best[changed] = nbr_best[changed]
        if round_index >= self.radius:
            ctx.finish(ctx.all_nodes, self.best)
            return None
        # Everyone re-broadcasts, but only the improved payloads are new.
        return ctx.standing_broadcast(self.best, changed)


class BFSTree(NodeProgram):
    """Grow BFS trees from marked roots; adopt the smallest-root-UID wave.

    Output per node: ``(root_uid, parent_index | None, depth)``. Roots
    are the nodes whose index is in ``roots``. Terminates after
    ``depth_bound`` rounds (pass the graph's size for full coverage).
    """

    def __init__(self, roots, depth_bound: int):
        if depth_bound < 1:
            raise ConfigurationError("depth_bound must be >= 1")
        self.roots = set(roots)
        self.depth_bound = depth_bound

    def init(self, ctx: NodeContext) -> Dict:
        if ctx.v in self.roots:
            ctx.state["claim"] = (ctx.uid, None, 0)  # root uid, parent, depth
            return {NodeProgram.BROADCAST: (ctx.uid, 0)}
        ctx.state["claim"] = None
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        best = ctx.state["claim"]
        changed = False
        for sender, (root_uid, depth) in inbox.items():
            offer = (root_uid, sender, depth + 1)
            if best is None or (offer[0], offer[2]) < (best[0], best[2]):
                best = offer
                changed = True
        ctx.state["claim"] = best
        if round_index >= self.depth_bound:
            ctx.finish(best)
            return {}
        if changed and best is not None:
            return {NodeProgram.BROADCAST: (best[0], best[2])}
        return {}


class ArrayBFSForest(ArrayProgram):
    """:class:`BFSTree` as whole-round array operations.

    Claims are (root uid, depth) pairs with the sender index as the
    final tiebreak, so the per-round adoption is a three-pass
    lexicographic segment-min over the CSR edge list — exactly the
    sequential fold BFSTree performs over its inbox (current claim wins
    ties; among tied offers the smallest sender, which is the first one
    the reference inbox iteration encounters).
    """

    def __init__(self, roots, depth_bound: int):
        if depth_bound < 1:
            raise ConfigurationError("depth_bound must be >= 1")
        self.roots = set(roots)
        self.depth_bound = depth_bound

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        n = ctx.size
        self.root = np.full(n, INT64_MAX, dtype=np.int64)  # MAX = no claim
        self.depth = np.zeros(n, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        # Same membership test BFSTree runs per node, so exotic root
        # collections (out-of-range labels) behave identically.
        r = np.array([v for v in range(n) if v in self.roots], dtype=np.int64)
        self.sent = np.zeros(n, dtype=bool)
        if not r.size:
            return None
        self.root[r] = ctx.uids[r]
        self.sent[r] = True
        return ctx.broadcast(r, tuple_message_bits(
            ctx.uid_message_bits[r], ctx.int_message_bits(self.depth[r])))

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        if self.sent.any():
            # Senders always hold a claim, so depth is real where sent;
            # the three-pass lexicographic min is one fused op.
            r_min, d_min, s_min = ctx.adopt_neighbor_min3(
                self.root, self.depth, self.sent)
            has_offer = r_min < INT64_MAX
            improved = has_offer & (
                (r_min < self.root)
                | ((r_min == self.root) & (d_min < self.depth)))
            idx = np.flatnonzero(improved)
            self.root[idx] = r_min[idx]
            self.depth[idx] = d_min[idx]
            self.parent[idx] = s_min[idx]
            self.sent = improved
        else:
            self.sent = np.zeros(ctx.size, dtype=bool)
        if round_index >= self.depth_bound:
            roots = self.root.tolist()
            parents = self.parent.tolist()
            depths = self.depth.tolist()
            unclaimed = int(INT64_MAX)
            outputs = [
                None if roots[v] == unclaimed else
                (roots[v], parents[v] if parents[v] >= 0 else None, depths[v])
                for v in range(ctx.size)
            ]
            ctx.finish(ctx.all_nodes, outputs)
            return None
        senders = np.flatnonzero(self.sent)
        if not senders.size:
            return None
        return ctx.broadcast(senders, tuple_message_bits(
            ctx.int_message_bits(self.root[senders]),
            ctx.int_message_bits(self.depth[senders])))


def flood_min(graph: Optional[DistributedGraph], radius: int,
              model: str = CONGEST, engine: Optional[str] = None,
              faults=None, csr=None) -> AlgorithmResult:
    """Run FloodMin on the engine the run needs.

    An active fault plan, or UIDs too wide for ArrayEngine, runs the
    per-node program on FastEngine; every other run takes the
    bit-identical whole-round program on ArrayEngine (``engine="array"``
    pins it, see :func:`~repro.sim.batch.array.resolve_engine`). ``csr``
    reuses a frozen topology (``graph`` may then be ``None``).
    """
    if resolve_engine(engine, faults, graph, csr) == "array":
        return ArrayEngine(graph, ArrayFloodMin(radius), model=model,
                           csr=csr).run()
    return FastEngine(graph, lambda _v: FloodMin(radius),
                      model=model, csr=csr, faults=faults).run()


def build_bfs_forest(graph: Optional[DistributedGraph], roots,
                     depth_bound: Optional[int] = None,
                     engine: Optional[str] = None, faults=None,
                     csr=None) -> AlgorithmResult:
    """Grow the BFS forest (CONGEST) on the engine the run needs.

    Engine and ``csr`` knobs as in :func:`flood_min`. With ``graph=None``
    the default ``depth_bound`` comes from the CSR's node count.
    """
    if depth_bound is not None:
        bound = depth_bound
    elif graph is not None:
        bound = graph.n
    elif csr is not None:
        bound = csr.n
    else:
        raise ConfigurationError(
            "build_bfs_forest needs a DistributedGraph or a pre-built "
            "CSRGraph; both were None")
    if resolve_engine(engine, faults, graph, csr) == "array":
        return ArrayEngine(graph, ArrayBFSForest(roots, bound),
                           model=CONGEST, max_rounds=bound + 2,
                           csr=csr).run()
    return FastEngine(graph, lambda _v: BFSTree(roots, bound),
                      model=CONGEST, max_rounds=bound + 2,
                      csr=csr, faults=faults).run()


def convergecast_sum(graph: DistributedGraph,
                     forest: Dict[int, Tuple[int, Optional[int], int]],
                     value_of: Callable[[int], int]) -> Tuple[Dict[int, int], int]:
    """Upcast per-node integer values to each tree root (orchestrated).

    ``forest`` maps node -> (root_uid, parent, depth) as produced by
    :func:`build_bfs_forest`. Returns (root_uid -> sum, rounds) where
    rounds = max tree depth — the convergecast cost Lemma 3.2 charges.
    """
    totals: Dict[int, int] = {}
    max_depth = 0
    # Process nodes bottom-up: accumulate into parents.
    carried = {v: value_of(v) for v in forest}
    for v, (_root, _parent, depth) in sorted(
            forest.items(), key=lambda item: -item[1][2]):
        max_depth = max(max_depth, depth)
        root_uid, parent, _d = forest[v]
        if parent is None:
            totals[root_uid] = totals.get(root_uid, 0) + carried[v]
        else:
            carried[parent] += carried[v]
    return totals, max_depth
