"""The network graph abstraction underlying LOCAL/CONGEST simulations.

A :class:`DistributedGraph` wraps a ``networkx`` graph with the two pieces
of bookkeeping the models require (Section 2 of the paper): contiguous
node *indices* (used internally and by randomness sources) and unique
Θ(log n)-bit *identifiers* (what algorithms may actually look at).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from ..errors import ConfigurationError


class DistributedGraph:
    """An n-node network with unique identifiers.

    Node *indices* are ``0 .. n-1`` (stable, dense; convenient keys for
    randomness sources and arrays). Node *identifiers* (UIDs) are unique
    integers from a configurable range — by default a random permutation
    of ``Θ(log n)``-bit values, matching the standard model assumption.

    Parameters
    ----------
    graph:
        Any networkx graph; nodes are relabeled to indices internally but
        the original labels are preserved in :attr:`labels`.
    uids:
        Optional explicit UID per index. Must be unique.
    uid_seed:
        Seed for the default random UID assignment.
    uid_range:
        UIDs are drawn from ``[1, uid_range]``; defaults to ``n**3`` so
        UIDs fit in ``3 log2 n + O(1)`` bits (the usual Θ(log n) bits).
    """

    def __init__(self, graph: nx.Graph, uids: Optional[List[int]] = None,
                 uid_seed: int = 0, uid_range: Optional[int] = None):
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("graph must have at least one node")
        try:
            self.labels: List = sorted(graph.nodes())
        except TypeError:
            # Mixed / unorderable label types: fall back to a stable
            # type-then-repr ordering.
            self.labels = sorted(graph.nodes(),
                                 key=lambda x: (type(x).__name__, repr(x)))
        self._index_of: Dict = {label: i for i, label in enumerate(self.labels)}
        self.nx = nx.relabel_nodes(graph, self._index_of, copy=True)
        self.n = self.nx.number_of_nodes()
        if uids is not None:
            if len(uids) != self.n or len(set(uids)) != self.n:
                raise ConfigurationError("uids must be n distinct values")
            self._uids = list(uids)
        else:
            rng = random.Random(uid_seed)
            hi = uid_range if uid_range is not None else max(8, self.n ** 3)
            if hi < self.n:
                raise ConfigurationError("uid_range smaller than node count")
            self._uids = rng.sample(range(1, hi + 1), self.n)
        self._uid_to_index = {uid: i for i, uid in enumerate(self._uids)}
        self._adj: List[List[int]] = [sorted(self.nx.neighbors(v))
                                      for v in range(self.n)]
        self._csr_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def nodes(self) -> range:
        """All node indices."""
        return range(self.n)

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbor indices of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph."""
        return max(len(a) for a in self._adj)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as index pairs (u < v)."""
        for u, v in self.nx.edges():
            yield (u, v) if u < v else (v, u)

    def uid(self, v: int) -> int:
        """Unique identifier of node ``v``."""
        return self._uids[v]

    def index_of_uid(self, uid: int) -> int:
        """Inverse UID lookup."""
        return self._uid_to_index[uid]

    def uid_bits(self) -> int:
        """Bits needed to write any UID (the Θ(log n) of the model)."""
        return max(self._uids).bit_length()

    # ------------------------------------------------------------------
    # Distance helpers (used by orchestrated algorithms and checkers)
    # ------------------------------------------------------------------
    def _csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lazily frozen (offsets, indices) CSR arrays for BFS queries.

        The topology is treated as immutable after construction (the
        batch engine already relies on this); the arrays are built once
        on the first distance query.
        """
        if self._csr_arrays is None:
            from .batch.csr import adjacency_to_csr
            self._csr_arrays = adjacency_to_csr(self._adj)
        return self._csr_arrays

    def bfs_distances(self, v: int, cutoff: Optional[int] = None) -> np.ndarray:
        """Distances from ``v`` (int64, -1 = unreached / beyond cutoff)."""
        from .batch.csr import bfs_distances
        offsets, indices = self._csr()
        return bfs_distances(offsets, indices, v, cutoff)

    def ball(self, v: int, radius: int) -> Dict[int, int]:
        """Map of node -> distance for all nodes within ``radius`` of v."""
        from .batch.csr import distances_to_ball
        return distances_to_ball(self.bfs_distances(v, cutoff=radius))

    def distance(self, u: int, v: int) -> Optional[int]:
        """Hop distance between u and v, or None if disconnected."""
        d = int(self.bfs_distances(u)[v])
        return d if d >= 0 else None

    def eccentricity_bound(self) -> int:
        """An upper bound on any finite distance (n is always safe)."""
        return self.n

    def connected_components(self) -> List[Set[int]]:
        """Connected components as sets of indices."""
        return [set(c) for c in nx.connected_components(self.nx)]

    def induced(self, nodes: Iterable[int]) -> nx.Graph:
        """Induced subgraph on the given indices (a plain networkx graph)."""
        return self.nx.subgraph(list(nodes)).copy()

    def subgraph_diameter(self, nodes: Iterable[int]) -> int:
        """Diameter of the induced subgraph (must be connected)."""
        sub = self.induced(nodes)
        if sub.number_of_nodes() <= 1:
            return 0
        return max(
            max(lengths.values())
            for _, lengths in nx.all_pairs_shortest_path_length(sub)
        )

    def weak_diameter(self, nodes: Iterable[int]) -> int:
        """Max distance *in G* between any two of the given nodes."""
        from .batch.csr import weak_diameter
        offsets, indices = self._csr()
        return weak_diameter(offsets, indices,
                             np.fromiter(nodes, dtype=np.int64))

    def power_graph(self, r: int) -> "DistributedGraph":
        """The r-th power G^r (edges between nodes at distance <= r).

        Used by the derandomization reductions ([GKM17]/[GHK18] run
        SLOCAL algorithms on a polylog power of G). UIDs are preserved.
        """
        if r < 1:
            raise ConfigurationError(f"power must be >= 1, got {r}")
        power = nx.Graph()
        power.add_nodes_from(range(self.n))
        for v in range(self.n):
            for u, d in self.ball(v, r).items():
                if u != v and d <= r:
                    power.add_edge(v, u)
        return DistributedGraph(power, uids=list(self._uids))

    def __repr__(self) -> str:
        return (f"DistributedGraph(n={self.n}, m={self.nx.number_of_edges()}, "
                f"uid_bits={self.uid_bits()})")
