"""The network graph abstraction underlying LOCAL/CONGEST simulations.

A :class:`DistributedGraph` is one n-node network with the two pieces
of bookkeeping the models require (Section 2 of the paper): contiguous
node *indices* (used internally and by randomness sources) and unique
Θ(log n)-bit *identifiers* (what algorithms may actually look at).

The topology is frozen once, at construction, into one sorted CSR
(:attr:`DistributedGraph.csr`, a :class:`~repro.sim.batch.csr.CSRGraph`
whose arrays are read-only) built from the input's edge list in a
single vectorized pass. Every query, algorithm, checker and engine run
on the graph reads that one snapshot. The input is an :class:`EdgeList`
(what :mod:`repro.graphs.generators` builds) or any networkx graph,
read once by duck typing and not kept; this module never imports
networkx.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError


def sorted_labels(nodes: Iterable) -> List:
    """Node labels in index order: sorted, or — for mixed, mutually
    unorderable label types — by a stable type-then-repr key."""
    nodes = list(nodes)
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=lambda x: (type(x).__name__, repr(x)))


class EdgeList:
    """A simple graph on nodes ``0 .. n-1`` as an ordered edge list.

    ``edges`` is a read-only ``int64[m, 2]`` array of node pairs in
    insertion order: the graph is the one networkx builds by adding
    nodes ``0 .. n-1`` and then these edges, in order. So each node's
    neighbors are ordered by the first edge naming them
    (:meth:`adjacency`), and :meth:`DistributedGraph.edges` lists the
    edges u-major, each node's larger neighbors in that order — what
    networkx's ``edges()`` would list. Self-loops, duplicate edges and
    out-of-range nodes are refused when a :class:`DistributedGraph` is
    built from it.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges) -> None:
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        edges.flags.writeable = False
        self.n = int(n)
        self.edges = edges

    def adjacency(self) -> List[List[int]]:
        """Each node's neighbors, ordered by the first edge naming them."""
        m = len(self.edges)
        tails = np.concatenate((self.edges[:, 0], self.edges[:, 1]))
        heads = np.concatenate((self.edges[:, 1], self.edges[:, 0]))
        order = np.lexsort((np.tile(np.arange(m), 2), tails))
        bounds = np.cumsum(np.bincount(tails, minlength=self.n))[:-1]
        return [part.tolist() for part in np.split(heads[order], bounds)]

    def __repr__(self) -> str:
        return f"EdgeList(n={self.n}, m={len(self.edges)})"


def u_major_edges(graph: EdgeList) -> np.ndarray:
    """``graph``'s edges as ``(u, v)`` pairs with ``u < v``, u-major and
    each node's larger neighbors in insertion order (a stable sort of
    the normalized pairs by ``u``); refuses what a simple graph on
    ``0 .. n-1`` cannot hold."""
    n, edges = graph.n, graph.edges
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ConfigurationError(f"edge endpoint outside 0 .. {n - 1}")
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    if np.any(lo == hi):
        raise ConfigurationError("self-loops are not allowed")
    if np.unique(lo * n + hi).size != lo.size:
        raise ConfigurationError("duplicate edges are not allowed")
    order = np.argsort(lo, kind="stable")
    return np.column_stack((lo[order], hi[order]))


class DistributedGraph:
    """An n-node network with unique identifiers.

    Node *indices* are ``0 .. n-1`` (stable, dense; convenient keys for
    randomness sources and arrays): index ``i`` is the ``i``-th label in
    :func:`sorted_labels` order. Node *identifiers* (UIDs) are unique
    integers from a configurable range — by default a random permutation
    of ``Θ(log n)``-bit values, matching the standard model assumption.

    Parameters
    ----------
    graph:
        An :class:`EdgeList` (labels ``0 .. n-1``), or any simple
        networkx graph, read through ``nodes()``/``edges()`` and not
        kept; its original labels are preserved in :attr:`labels`.
    uids:
        Optional explicit UID per index. Must be unique.
    uid_seed:
        Seed for the default random UID assignment.
    uid_range:
        UIDs are drawn from ``[1, uid_range]``; defaults to ``n**3`` so
        UIDs fit in ``3 log2 n + O(1)`` bits (the usual Θ(log n) bits).
    """

    def __init__(self, graph, uids: Optional[List[int]] = None,
                 uid_seed: int = 0, uid_range: Optional[int] = None):
        # Deferred: the batch package imports this module.
        from .batch.csr import CSRGraph, edges_to_csr, index_edges

        if isinstance(graph, EdgeList):
            self.labels = list(range(graph.n))
            self._edges = u_major_edges(graph)
        else:
            self.labels, self._edges = index_edges(graph)
        if not self.labels:
            raise ConfigurationError("graph must have at least one node")
        self.n = len(self.labels)
        self.m = len(self._edges)
        if uids is None:
            rng = random.Random(uid_seed)
            hi = uid_range if uid_range is not None else max(8, self.n ** 3)
            if hi < self.n:
                raise ConfigurationError("uid_range smaller than node count")
            uids = rng.sample(range(1, hi + 1), self.n)
        offsets, indices = edges_to_csr(self.n, self._edges)
        self.csr = CSRGraph(offsets, indices, uids)
        for array in (self._edges, offsets, indices, self.csr.degrees):
            array.flags.writeable = False

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    def nodes(self) -> range:
        """All node indices."""
        return range(self.n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbor indices of ``v``."""
        return self.csr.neighbor_lists[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self.csr.degrees[v])

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph."""
        return self.csr.max_degree()

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as index pairs (u < v), in the input's edge order."""
        return zip(self._edges[:, 0].tolist(), self._edges[:, 1].tolist())

    def uid(self, v: int) -> int:
        """Unique identifier of node ``v``."""
        return self.csr.uids[v]

    def index_of_uid(self, uid: int) -> int:
        """Inverse UID lookup."""
        return self.csr.index_of_uid(uid)

    def uid_bits(self) -> int:
        """Bits needed to write any UID (the Θ(log n) of the model)."""
        return self.csr.uid_bits()

    # ------------------------------------------------------------------
    # Distance helpers (used by orchestrated algorithms and checkers)
    # ------------------------------------------------------------------
    def bfs_distances(self, v: int, cutoff: Optional[int] = None) -> np.ndarray:
        """Distances from ``v`` (int64, -1 = unreached / beyond cutoff)."""
        return self.csr.bfs_distances(v, cutoff)

    def ball(self, v: int, radius: int) -> Dict[int, int]:
        """Map of node -> distance for all nodes within ``radius`` of v."""
        return self.csr.ball(v, radius)

    def distance(self, u: int, v: int) -> Optional[int]:
        """Hop distance between u and v, or None if disconnected."""
        d = int(self.bfs_distances(u)[v])
        return d if d >= 0 else None

    def eccentricity_bound(self) -> int:
        """An upper bound on any finite distance (n is always safe)."""
        return self.n

    def connected_components(self) -> List[Set[int]]:
        """Connected components as sets of indices, ordered by their
        smallest node."""
        from .batch.csr import component_labels
        label = component_labels(self.csr.offsets, self.csr.indices)
        order = np.argsort(label, kind="stable")
        bounds = np.cumsum(np.bincount(label))[:-1]
        return [set(part.tolist()) for part in np.split(order, bounds)]

    def weak_diameter(self, nodes: Iterable[int]) -> int:
        """Max distance *in G* between any two of the given nodes."""
        from .batch.csr import weak_diameter
        return weak_diameter(self.csr.offsets, self.csr.indices,
                             np.fromiter(nodes, dtype=np.int64))

    def power_graph(self, r: int) -> "DistributedGraph":
        """The r-th power G^r (edges between nodes at distance <= r).

        Used by the derandomization reductions ([GKM17]/[GHK18] run
        SLOCAL algorithms on a polylog power of G). UIDs are preserved.
        """
        if r < 1:
            raise ConfigurationError(f"power must be >= 1, got {r}")
        pairs = []
        for v in range(self.n):
            near = np.flatnonzero(self.bfs_distances(v, cutoff=r)[v + 1:] >= 0)
            pairs.append(np.column_stack((np.full(near.size, v), near + v + 1)))
        return DistributedGraph(EdgeList(self.n, np.concatenate(pairs)),
                                uids=list(self.csr.uids))

    def __repr__(self) -> str:
        return (f"DistributedGraph(n={self.n}, m={self.m}, "
                f"uid_bits={self.uid_bits()})")
