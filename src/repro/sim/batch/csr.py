"""Compressed-sparse-row adjacency: the one frozen topology of a network.

Every :class:`~repro.sim.graph.DistributedGraph` builds one
:class:`CSRGraph` at construction (:attr:`DistributedGraph.csr`) from
its input's edge list (:func:`index_edges` + :func:`edges_to_csr`) and
answers its topology queries from it; the array engine runs on that
same instance. :class:`CSRGraph` holds the classic offsets/indices
layout, with each neighbor list sorted, plus a cached Python-level view
(:attr:`CSRGraph.neighbor_lists`, tuples) for per-node queries.

The CSR arrays are numpy ``int64``; UIDs stay a Python tuple because the
model only bounds them by Θ(log n) bits, not by machine-word width.
:attr:`CSRGraph.uid_array` materializes them as ``int64`` once when they
all lie in [0, 2**62), and is ``None`` otherwise: the array engine then
ranks the UIDs itself.
Large-graph callers may skip ``DistributedGraph`` entirely and hand the
engine a ``CSRGraph`` built from their own arrays.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError
from ..graph import DistributedGraph, sorted_labels


def _neighbors_of(offsets: np.ndarray, indices: np.ndarray,
                  frontier: np.ndarray) -> np.ndarray:
    """The neighbors of every ``frontier`` node, concatenated (one
    fancy-gather over their CSR segments)."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return indices[base + np.arange(base.size)]


def bfs_distances(offsets: np.ndarray, indices: np.ndarray, source,
                  cutoff: Optional[int] = None) -> np.ndarray:
    """Hop distances from ``source`` over a CSR adjacency.

    ``source`` is one node or an array of nodes (distance to the
    nearest). Returns an ``int64[n]`` array with -1 for nodes unreached
    (because of disconnection or the ``cutoff``). Frontier expansion is
    fully vectorized: one fancy-gather per level — the ball/distance
    workhorse for orchestrated pipelines (many-source distances go
    through :func:`weak_diameter`).
    """
    n = offsets.size - 1
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.atleast_1d(np.asarray(source, dtype=np.int64))
    dist[frontier] = 0
    depth = 0
    while frontier.size and (cutoff is None or depth < cutoff):
        neighbors = _neighbors_of(offsets, indices, frontier)
        neighbors = neighbors[dist[neighbors] < 0]
        if not neighbors.size:
            break
        frontier = np.unique(neighbors)
        depth += 1
        dist[frontier] = depth
    return dist


def component_labels(offsets: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Connected components as ``int64[n]`` labels ``0 .. k-1``, numbered
    in the order of their smallest node.

    Min-label propagation with hooking and pointer jumping, in
    whole-array passes: every node takes the smallest label among its
    own and its neighbors', hands it to the node its old label names,
    then follows labels to their fixed point. Labels only fall and
    always name a node of their own component, so at the fixed point
    each component carries its smallest node; O(log n) passes on paths.
    """
    n = offsets.size - 1
    label = np.arange(n, dtype=np.int64)
    while True:
        low = np.minimum(label, segment_reduce(label[indices], offsets,
                                               np.minimum, n))
        np.minimum.at(low, label, low)
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, label):
            break
        label = low
    return np.unique(label, return_inverse=True)[1].astype(np.int64)


def segment_reduce(edge_values: np.ndarray, offsets: np.ndarray,
                   ufunc: np.ufunc, identity) -> np.ndarray:
    """Per-node reduction of per-edge values over CSR segments.

    ``edge_values`` is aligned with the CSR ``indices`` array along axis
    0 (rows may be arrays, e.g. packed bitsets); node ``v``'s reduction
    covers ``edge_values[offsets[v]:offsets[v+1]]``, and empty segments
    yield ``identity``. One padded ``reduceat`` call — the pad row is the
    identity, so the final (to-the-end) segment reduces correctly and
    empty segments are masked afterwards.

    Stateless reference oracle: :class:`~repro.sim.batch.array.
    ArrayContext` computes the same per-node reductions by folding its
    jagged-diagonal edge buffers column by column, and the tests hold
    that fold and its fused ops to this function.
    """
    values = np.asarray(edge_values)
    padded = np.empty((values.shape[0] + 1,) + values.shape[1:],
                      dtype=values.dtype)
    padded[:-1] = values
    padded[-1] = identity
    reduced = ufunc.reduceat(padded, offsets[:-1], axis=0)
    nonempty = (offsets[1:] > offsets[:-1]).reshape(
        (-1,) + (1,) * (values.ndim - 1))
    return np.where(nonempty, reduced, identity)


#: Source members per :func:`weak_diameter` pass: bounds each bitset row
#: at 128 bytes, so a pass holds O(nnz * 128 B) whatever the set's size.
WEAK_DIAMETER_CHUNK = 1024

_DISCONNECTED = "weak diameter undefined: nodes in different components"


def weak_diameter(offsets: np.ndarray, indices: np.ndarray,
                  members: np.ndarray) -> int:
    """Max hop distance over a CSR adjacency between any two ``members``.

    One multi-source BFS on packed bitsets per chunk of
    :data:`WEAK_DIAMETER_CHUNK` source members: row ``v`` of
    ``reach``/``frontier`` (``uint8[n, ceil(s / 8)]``) holds the sources
    that have reached ``v``, and one level ORs each node's neighbors'
    frontier rows (:func:`segment_reduce` over the CSR gather). The
    chunk's answer is the first depth at which every member's row holds
    all ``s`` source bits; the result is the max over chunks. Empty and
    single-member sets give 0; duplicates are ignored. Raises
    :class:`ConfigurationError` if two members lie in different
    components.
    """
    members = np.unique(np.asarray(members, dtype=np.int64))
    if members.size < 2:
        return 0
    n = offsets.size - 1
    best = 0
    for lo in range(0, members.size, WEAK_DIAMETER_CHUNK):
        sources = members[lo:lo + WEAK_DIAMETER_CHUNK]
        lanes = np.arange(sources.size)
        reach = np.zeros((n, (sources.size + 7) // 8), dtype=np.uint8)
        reach[sources, lanes >> 3] = np.left_shift(1, lanes & 7)
        full = np.packbits(np.ones(sources.size, dtype=np.uint8),
                           bitorder="little")
        frontier = reach
        depth = 0
        while not np.all(reach[members] == full):
            frontier = segment_reduce(frontier[indices], offsets,
                                      np.bitwise_or, 0)
            frontier &= ~reach
            if not frontier.any():
                raise ConfigurationError(_DISCONNECTED)
            reach |= frontier
            depth += 1
        best = max(best, depth)
    return best


def cluster_subgraphs(offsets: np.ndarray, indices: np.ndarray,
                      cluster: np.ndarray
                      ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each cluster's induced subgraph as a CSR ``(offsets, indices)``.

    ``cluster`` is ``int64[n]``: dense cluster ids ``0 .. k-1``, or -1
    for nodes in no cluster. Yields one pair per id in id order, over
    local indices ``0 .. |C|-1`` numbering the members in node order.
    All k subgraphs come from one pass over the arcs: members are
    grouped by cluster and only the arcs inside a cluster are kept, so
    each subgraph is a slice of one compacted CSR.
    """
    n = offsets.size - 1
    tails = np.repeat(np.arange(n), np.diff(offsets))
    inside = (cluster[tails] == cluster[indices]) & (cluster[tails] >= 0)
    members = np.argsort(cluster, kind="stable")
    members = members[cluster[members] >= 0]
    local = np.empty(n, dtype=np.int64)
    local[members] = np.arange(members.size)
    arc_tails = local[tails[inside]]
    arc_order = np.argsort(arc_tails, kind="stable")
    heads = local[indices[inside]][arc_order]
    sub_offsets = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(arc_tails, minlength=members.size),
              out=sub_offsets[1:])
    bounds = np.zeros(int(cluster.max(initial=-1)) + 2, dtype=np.int64)
    np.cumsum(np.bincount(cluster[members], minlength=bounds.size - 1),
              out=bounds[1:])
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        first, last = sub_offsets[lo], sub_offsets[hi]
        yield sub_offsets[lo:hi + 1] - first, heads[first:last] - lo


def distances_to_ball(dist: np.ndarray) -> Dict[int, int]:
    """BFS distance array -> ``{node: distance}`` for reached nodes."""
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def index_edges(graph) -> Tuple[List, np.ndarray]:
    """Index a networkx graph by its sorted labels.

    Returns ``(labels, edges)``: the label list in index order
    (:func:`~repro.sim.graph.sorted_labels`) and the edges as an
    ``int64[m, 2]`` array of index pairs ``(u, v)`` with ``u < v``, in
    ``graph.edges()`` order. Self-loops are refused: the model's network
    is a simple graph.
    """
    labels = sorted_labels(graph.nodes())
    index_of = {label: i for i, label in enumerate(labels)}
    m = graph.number_of_edges()
    edges = np.fromiter(
        map(index_of.__getitem__, chain.from_iterable(graph.edges())),
        dtype=np.int64, count=2 * m).reshape(m, 2)
    edges.sort(axis=1)
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ConfigurationError("self-loops are not allowed")
    return labels, edges


def edges_to_csr(n: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, indices)`` holding both arcs of every edge.

    One ``np.lexsort`` over the arcs (tail, then head) leaves every
    neighbor list sorted.
    """
    tails = np.concatenate((edges[:, 0], edges[:, 1]))
    heads = np.concatenate((edges[:, 1], edges[:, 0]))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    return offsets, heads[np.lexsort((heads, tails))]


def ensure_csr(graph: Optional[DistributedGraph],
               csr: Optional["CSRGraph"]) -> "CSRGraph":
    """The :class:`CSRGraph` an engine runs on: ``graph.csr``, or a
    supplied ``csr`` after checking it against ``graph``.

    The checks are O(n), not a full O(m) topology compare: node count,
    UID assignment and edge count, which catches the realistic misuse
    of passing one graph's CSR with another graph.

    ``graph`` may be ``None`` when a pre-built ``csr`` is supplied — the
    large-graph path, where building a DistributedGraph's input would
    dwarf the run itself.
    """
    if graph is None:
        if csr is None:
            raise ConfigurationError(
                "an engine needs a DistributedGraph or a pre-built "
                "CSRGraph; both were None")
        return csr
    if csr is None:
        return graph.csr
    if csr.n != graph.n:
        raise ConfigurationError(
            f"csr has {csr.n} nodes but graph has {graph.n}")
    if csr.uids != graph.csr.uids:
        raise ConfigurationError(
            "csr UID assignment does not match the graph; was the "
            "CSRGraph built from a different DistributedGraph?")
    if csr.m != graph.m:
        raise ConfigurationError(
            f"csr has {csr.m} edges but graph has {graph.m}")
    return csr


#: UIDs in [0, UID_WORD) run as themselves in the array engine; wider
#: ones (the model bounds them only by Θ(log n) bits) run as ranks.
UID_WORD = 1 << 62

_UNSET = object()


class CSRGraph:
    """Array-backed, immutable adjacency snapshot of a network.

    Attributes
    ----------
    n, m:
        Node and (undirected) edge counts.
    offsets:
        ``int64[n + 1]``; node ``v``'s neighbors live at
        ``indices[offsets[v]:offsets[v + 1]]``.
    indices:
        ``int64[2 m]`` concatenated sorted neighbor lists.
    degrees:
        ``int64[n]`` (``offsets`` differences).
    uids:
        Tuple of the n unique identifiers, by node index.

    The arcs must be symmetric: ``u`` is in ``v``'s list exactly when
    ``v`` is in ``u``'s (every builder here guarantees it). The array
    engine's frontier branch pushes a broadcast along the sender's own
    list, while the jagged-diagonal fold pulls along the receiver's
    list; only symmetry makes the two agree, and nothing checks it.
    """

    __slots__ = ("n", "m", "offsets", "indices", "degrees", "uids",
                 "_uid_array", "_neighbor_lists", "_uid_to_index")

    def __init__(self, offsets: np.ndarray, indices: np.ndarray,
                 uids: Tuple[int, ...]):
        offsets = np.asarray(offsets, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2:
            raise ConfigurationError("offsets must be a 1-d array of n+1 ints")
        if offsets[0] != 0 or offsets[-1] != indices.size:
            raise ConfigurationError("offsets must span exactly the indices")
        degrees = np.diff(offsets)
        if np.any(degrees < 0):
            raise ConfigurationError("offsets must be non-decreasing")
        self.n = int(offsets.size - 1)
        if len(uids) != self.n or len(set(uids)) != self.n:
            raise ConfigurationError("uids must be n distinct values")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ConfigurationError("neighbor index out of range")
        if indices.size % 2 != 0:
            raise ConfigurationError("indices must hold both arcs of each edge")
        self.m = int(indices.size // 2)
        self.offsets = offsets
        self.indices = indices
        self.degrees = degrees
        self.uids = tuple(uids)
        self._uid_array = _UNSET
        self._neighbor_lists: Tuple[Tuple[int, ...], ...] = None  # lazy
        self._uid_to_index: Dict[int, int] = None

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    @property
    def uid_array(self) -> Optional[np.ndarray]:
        """UIDs as a read-only ``int64`` array (the array engine's
        column) when every UID lies in [0, :data:`UID_WORD`), else
        ``None`` — the model allows arbitrary-width identifiers, numpy
        does not, and silent truncation would break every UID tiebreak.
        Decided and built once per graph.
        """
        if self._uid_array is _UNSET:
            column = np.asarray(self.uids)
            # numpy infers int64 exactly when every UID is an int fitting one.
            if (column.dtype == np.int64 and column.min() >= 0
                    and column.max() < UID_WORD):
                column.flags.writeable = False
            else:
                column = None
            self._uid_array = column
        return self._uid_array

    # ------------------------------------------------------------------
    # Topology access (mirrors DistributedGraph's query surface)
    # ------------------------------------------------------------------
    def nodes(self) -> range:
        """All node indices."""
        return range(self.n)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of ``v`` (an array view, not a copy)."""
        return self.indices[self.offsets[v]:self.offsets[v + 1]]

    def neighbor_list(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``v`` as a cached tuple of Python ints."""
        return self.neighbor_lists[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self.degrees[v])

    def max_degree(self) -> int:
        """Maximum degree Δ of the graph."""
        return int(self.degrees.max()) if self.n else 0

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as index pairs (u < v), in u-major order."""
        for u in range(self.n):
            for v in self.neighbor_list(u):
                if u < v:
                    yield (u, v)

    def uid(self, v: int) -> int:
        """Unique identifier of node ``v``."""
        return self.uids[v]

    def index_of_uid(self, uid: int) -> int:
        """Inverse UID lookup."""
        if self._uid_to_index is None:
            self._uid_to_index = {u: i for i, u in enumerate(self.uids)}
        return self._uid_to_index[uid]

    def uid_bits(self) -> int:
        """Bits needed to write any UID (the Θ(log n) of the model)."""
        return max(self.uids).bit_length()

    # ------------------------------------------------------------------
    # Distance queries (vectorized BFS over the frozen arrays)
    # ------------------------------------------------------------------
    def bfs_distances(self, v: int, cutoff: Optional[int] = None) -> np.ndarray:
        """Distances from ``v`` (int64, -1 = unreached / beyond cutoff)."""
        return bfs_distances(self.offsets, self.indices, v, cutoff)

    def ball(self, v: int, radius: int) -> Dict[int, int]:
        """Map of node -> distance for all nodes within ``radius`` of v."""
        return distances_to_ball(self.bfs_distances(v, cutoff=radius))

    # ------------------------------------------------------------------
    # Cached Python-level view
    # ------------------------------------------------------------------
    @property
    def neighbor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node sorted neighbors as tuples of plain Python ints.

        Tuples, so the views a shared graph hands out (one graph may
        serve many trials) cannot be mutated."""
        if self._neighbor_lists is None:
            flat = tuple(self.indices.tolist())
            bounds = self.offsets.tolist()
            self._neighbor_lists = tuple(flat[bounds[v]:bounds[v + 1]]
                                         for v in range(self.n))
        return self._neighbor_lists

    # ------------------------------------------------------------------
    # Equality / debugging
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (self.uids == other.uids
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):  # arrays are mutable; keep instances unhashable
        raise TypeError("CSRGraph is unhashable")

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m}, uid_bits={self.uid_bits()})"
