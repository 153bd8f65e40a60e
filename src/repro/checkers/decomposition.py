"""Local checker for (c(n), d(n))-network decompositions.

Decomposition is the paper's canonical poly(log n)-locally checkable
problem: with radius d(n) + 1, node v can verify that

* it belongs to exactly one cluster and the cluster has a color below the
  bound;
* every member of v's cluster lies within distance d(n) of v *inside the
  cluster* (strong diameter) or in G (weak diameter) — and, crucially,
  that v sees no member of its cluster beyond that distance;
* neighboring nodes in different clusters have different cluster colors.

Node outputs are ``(cluster_id, color)`` pairs.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .base import LocalChecker, LocalView


class DecompositionChecker(LocalChecker):
    """Checker for decompositions with explicit (colors, diameter) bounds.

    Parameters
    ----------
    max_colors:
        Color values must lie in [0, max_colors).
    max_diameter:
        Every pair of same-cluster nodes must be within this distance.
    strong:
        If True, same-cluster connectivity must hold inside the cluster's
        induced subgraph (strong diameter); otherwise distance in G
        (weak diameter) is checked.
    """

    def __init__(self, max_colors: int, max_diameter: int, strong: bool = False):
        self.max_colors = max_colors
        self.max_diameter = max_diameter
        self.strong = strong

    def radius(self, n: int) -> int:
        return self.max_diameter + 1

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        out = view.outputs[v]
        if not (isinstance(out, tuple) and len(out) == 2):
            return False
        cid, color = out
        if not isinstance(color, int) or not 0 <= color < self.max_colors:
            return False
        # Same-cluster distance bound. The view has radius d+1, so any
        # member of v's cluster that is visible beyond d is a violation,
        # and members invisible to v would be flagged by intermediate
        # nodes of the (too long) path — radius d+1 views tile the graph.
        same_cluster = [u for u, o in view.outputs.items()
                        if isinstance(o, tuple) and o[0] == cid]
        if self.strong:
            dist = self._cluster_distances(v, same_cluster, view)
            for u in same_cluster:
                if u in view.nodes and view.nodes[u] <= self.max_diameter:
                    if dist.get(u, self.max_diameter + 1) > self.max_diameter:
                        return False
        for u in same_cluster:
            if view.nodes[u] > self.max_diameter:
                return False
        # Proper cluster coloring across edges.
        for a, b in view.edges:
            if v not in (a, b):
                continue
            u = b if a == v else a
            other = view.outputs.get(u)
            if isinstance(other, tuple) and other[0] != cid and other[1] == color:
                return False
        return True

    @staticmethod
    def _cluster_distances(v: int, members: List[int],
                           view: LocalView) -> Dict[int, int]:
        """BFS from v using only edges inside v's cluster (strong check)."""
        member_set: Set[int] = set(members)
        adjacency: Dict[int, List[int]] = {m: [] for m in members}
        for a, b in view.edges:
            if a in member_set and b in member_set:
                adjacency[a].append(b)
                adjacency[b].append(a)
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt: List[int] = []
            for x in frontier:
                for y in adjacency.get(x, ()):  # only cluster-internal edges
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist


def decomposition_outputs(decomposition) -> Dict[int, Tuple[int, int]]:
    """Convert a :class:`~repro.structures.Decomposition` to node outputs."""
    return {
        v: (cid, decomposition.color_of[cid])
        for v, cid in decomposition.cluster_of.items()
    }
