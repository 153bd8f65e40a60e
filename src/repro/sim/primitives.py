"""Classic CONGEST communication primitives as engine programs.

The paper's constructions lean on three textbook subroutines — Lemma 3.2
"a simple flooding of the name of nodes in R", "a simple upcast on the
tree", and the BFS cluster-growing of Theorem 4.2. This module provides
them as genuine engine programs so their measured costs (depth + O(1)
rounds, O(log n)-bit messages) back the accounted figures used by the
orchestrated pipelines.

* :class:`ArrayFloodMin` / :func:`flood_min` — every node learns the
  minimum UID within a given radius (radius rounds; the building block
  of center adoption);
* :class:`ArrayBFSForest` / :func:`build_bfs_forest` — builds a BFS
  tree rooted at marked nodes: every node learns (root uid, parent,
  depth), ties to the smaller root UID;
* :func:`convergecast_sum` — upcast an aggregate along a BFS tree to the
  root (depth rounds), demonstrating the Lemma 3.2 bit-gathering cost.

Both programs are whole-round :class:`~repro.sim.batch.array.
ArrayProgram`\\ s, and every run of them — under a fault plan or with
UIDs of any width too — is an :class:`~repro.sim.batch.array.
ArrayEngine` run.
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
    check_engine,
    tuple_message_bits,
)
from .graph import DistributedGraph
from .messages import CONGEST
from .metrics import AlgorithmResult


class ArrayFloodMin(ArrayProgram):
    """Learn the minimum UID within ``radius`` hops (radius rounds).

    Every node starts from its own UID and re-broadcasts its current
    minimum every round, improved or not (neighbors joining late still
    need it; the message is O(log n) bits, so this stays CONGEST-legal),
    and finishes with it after ``radius`` rounds. One segment-min over
    the CSR edge list per round replaces n inbox scans, and the
    re-broadcast is a standing broadcast that re-measures only the nodes
    whose minimum moved.
    """

    def __init__(self, radius: int):
        if radius < 0:
            raise ConfigurationError("radius must be >= 0")
        self.radius = radius
        self.best: Optional[np.ndarray] = None

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        self.best = ctx.uids.copy()
        if self.radius == 0:
            ctx.finish(ctx.all_nodes, ctx.uid_values(self.best))
            return None
        return ctx.standing_broadcast(self.best)

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        # What neighbors broadcast last round is their current best: it
        # only changes below, after this aggregation.
        nbr_best = ctx.gather_neighbor_min(self.best)
        changed = np.flatnonzero(nbr_best < self.best)
        self.best[changed] = nbr_best[changed]
        if round_index >= self.radius:
            ctx.finish(ctx.all_nodes, ctx.uid_values(self.best))
            return None
        # Everyone re-broadcasts, but only the improved payloads are new.
        return ctx.standing_broadcast(self.best, changed)


class ArrayBFSForest(ArrayProgram):
    """Grow BFS trees from marked roots; adopt the smallest-root-UID wave.

    Output per node: ``(root_uid, parent_index | None, depth)``, or
    ``None`` if no wave reached it. Roots are the nodes whose index is
    in ``roots``; a node re-broadcasts its claim whenever it improves,
    for ``depth_bound`` rounds (the graph's size covers it all).

    Claims are (root uid, depth) pairs with the sender index as the
    final tiebreak, so the per-round adoption is a three-pass
    lexicographic segment-min over the CSR edge list — the sequential
    fold of a node's inbox in sender order (the current claim wins
    ties; among tied offers the smallest sender).
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
        # A per-node membership test, so exotic root collections
        # (out-of-range labels) simply mark no node.
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
            unclaimed = int(INT64_MAX)
            raw = self.root.tolist()
            roots = raw if ctx.uid_of is None else [
                None if r == unclaimed else ctx.uid_of[r] for r in raw]
            parents = self.parent.tolist()
            depths = self.depth.tolist()
            outputs = [
                None if raw[v] == unclaimed else
                (roots[v], parents[v] if parents[v] >= 0 else None, depths[v])
                for v in range(ctx.size)
            ]
            ctx.finish(ctx.all_nodes, outputs)
            return None
        senders = np.flatnonzero(self.sent)
        if not senders.size:
            return None
        return ctx.broadcast(senders, tuple_message_bits(
            ctx.uid_bits(self.root[senders]),
            ctx.int_message_bits(self.depth[senders])))


def flood_min(graph: Optional[DistributedGraph], radius: int,
              model: str = CONGEST, engine: Optional[str] = None,
              faults=None, csr=None) -> AlgorithmResult:
    """Run :class:`ArrayFloodMin` on ArrayEngine.

    ``faults`` is an optional :class:`~repro.sim.batch.faults.
    RoundFaultPlan`; ``engine`` may only name ``"array"`` (see
    :func:`~repro.sim.batch.array.check_engine`). ``csr`` reuses a
    frozen topology (``graph`` may then be ``None``).
    """
    check_engine(engine)
    return ArrayEngine(graph, ArrayFloodMin(radius), model=model, csr=csr,
                       faults=faults).run()


def build_bfs_forest(graph: Optional[DistributedGraph], roots,
                     depth_bound: Optional[int] = None,
                     engine: Optional[str] = None, faults=None,
                     csr=None) -> AlgorithmResult:
    """Grow the BFS forest (CONGEST) with :class:`ArrayBFSForest`.

    ``engine``, ``faults`` and ``csr`` as in :func:`flood_min`. With
    ``graph=None`` the default ``depth_bound`` comes from the CSR's node
    count.
    """
    check_engine(engine)
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
    return ArrayEngine(graph, ArrayBFSForest(roots, bound), model=CONGEST,
                       max_rounds=bound + 2, csr=csr, faults=faults).run()


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
