"""Compressed-sparse-row adjacency for the batch simulation engine.

A :class:`~repro.sim.graph.DistributedGraph` answers topology queries
through networkx and per-call Python lists; that is fine for checkers
and orchestrated pipelines but wasteful on the engine hot path, where
the same neighbor lists are walked every round. :class:`CSRGraph`
freezes the static topology once into flat arrays — the classic
offsets/indices layout — plus cached Python-level views (lists and
frozensets) that the :class:`~repro.sim.batch.fast_engine.FastEngine`
reads without any per-round allocation.

The CSR arrays are numpy ``int64``; UIDs stay a Python tuple because the
model only bounds them by Θ(log n) bits, not by machine-word width. For
the engines that do need machine-word UIDs, :attr:`CSRGraph.uid_array`
materializes them as ``int64`` once (and refuses wider values loudly).

:meth:`CSRGraph.save` / :meth:`CSRGraph.load` persist a frozen topology
as ``.npy`` files; loading with ``mmap=True`` memory-maps the arrays via
``np.lib.format.open_memmap`` and defers every O(n) derived structure,
so a 10^6–10^7-node graph opens in O(1). :class:`GraphCache` keeps such
directories in a content-addressed on-disk cache, so a sweep builds
each distinct graph once and later runs memory-map it back. Point
``$REPRO_GRAPH_CACHE`` (or either CLI's ``--graph-cache``) at a
directory to enable it for the batch tasks.
"""

from __future__ import annotations

import json
import os
import shutil
from hashlib import blake2b
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from ..graph import DistributedGraph

#: On-disk layout version of :meth:`CSRGraph.save` directories.
CSR_FORMAT_VERSION = 1

_META_NAME = "csr-meta.json"

#: Environment variable naming the on-disk graph cache directory.
GRAPH_CACHE_ENV = "REPRO_GRAPH_CACHE"


def bfs_distances(offsets: np.ndarray, indices: np.ndarray, source: int,
                  cutoff: Optional[int] = None) -> np.ndarray:
    """Hop distances from ``source`` over a CSR adjacency.

    Returns an ``int64[n]`` array with -1 for nodes unreached (because of
    disconnection or the ``cutoff``). Frontier expansion is fully
    vectorized: one fancy-gather per level instead of one networkx dict
    per call — the ball/distance workhorse for orchestrated pipelines
    (many-source distances go through :func:`weak_diameter`).
    """
    n = offsets.size - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (cutoff is None or depth < cutoff):
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        neighbors = indices[base + np.arange(total)]
        neighbors = neighbors[dist[neighbors] < 0]
        if not neighbors.size:
            break
        frontier = np.unique(neighbors)
        depth += 1
        dist[frontier] = depth
    return dist


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


def adjacency_to_csr(neighbor_lists: Sequence[Sequence[int]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten index-keyed neighbor lists into (offsets, indices) arrays."""
    degrees = np.fromiter((len(a) for a in neighbor_lists), dtype=np.int64,
                          count=len(neighbor_lists))
    offsets = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    indices = np.empty(int(offsets[-1]), dtype=np.int64)
    for v, adj in enumerate(neighbor_lists):
        indices[offsets[v]:offsets[v + 1]] = adj
    return offsets, indices


def distances_to_ball(dist: np.ndarray) -> Dict[int, int]:
    """BFS distance array -> ``{node: distance}`` for reached nodes."""
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def nx_to_csr(graph) -> Tuple[np.ndarray, np.ndarray, List]:
    """CSR arrays for an arbitrary networkx graph.

    Returns ``(offsets, indices, nodes)`` where ``nodes`` is the sorted
    label list defining the index mapping (position = index). Mixed,
    mutually unorderable label types fall back to a stable
    type-then-repr ordering (mirroring :class:`~repro.sim.graph.
    DistributedGraph`). Used by callers that run BFS over graphs whose
    labels are not ``0..n-1`` (e.g. holder selection in
    :mod:`repro.randomness.sparse`).
    """
    try:
        nodes = sorted(graph.nodes())
    except TypeError:
        nodes = sorted(graph.nodes(),
                       key=lambda x: (type(x).__name__, repr(x)))
    index_of = {label: i for i, label in enumerate(nodes)}
    neighbor_lists = [[index_of[u] for u in graph.neighbors(v)] for v in nodes]
    offsets, indices = adjacency_to_csr(neighbor_lists)
    return offsets, indices, nodes


def ensure_csr(graph: Optional[DistributedGraph],
               csr: Optional["CSRGraph"]) -> "CSRGraph":
    """Build a :class:`CSRGraph` for ``graph``, or validate a cached one.

    Shared by the batch engines: with ``csr=None`` the topology is frozen
    fresh; otherwise sanity checks (O(n), not a full O(m) topology
    compare — that would cost as much as rebuilding) verify node count,
    UID assignment, and edge count, which catches the realistic misuse of
    caching one CSRGraph across a sweep that rebuilds the graph per seed.

    ``graph`` may be ``None`` when a pre-built ``csr`` is supplied — the
    large-graph path, where materializing a DistributedGraph (networkx
    adjacency plus per-node Python lists) would dwarf the run itself.
    """
    if graph is None:
        if csr is None:
            raise ConfigurationError(
                "an engine needs a DistributedGraph or a pre-built "
                "CSRGraph; both were None")
        return csr
    if csr is None:
        return CSRGraph.from_graph(graph)
    if csr.n != graph.n:
        raise ConfigurationError(
            f"csr has {csr.n} nodes but graph has {graph.n}")
    if csr.uids != tuple(graph.uid(v) for v in range(graph.n)):
        raise ConfigurationError(
            "csr UID assignment does not match the graph; was the "
            "CSRGraph built from a different DistributedGraph?")
    if csr.m != graph.nx.number_of_edges():
        raise ConfigurationError(
            f"csr has {csr.m} edges but graph has "
            f"{graph.nx.number_of_edges()}")
    return csr


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
        ``int64[n]`` (``offsets`` differences, materialized lazily).
    uids:
        Tuple of the n unique identifiers, by node index (lazy when the
        instance was loaded from disk).

    The arcs must be symmetric: ``u`` is in ``v``'s list exactly when
    ``v`` is in ``u``'s (every builder here guarantees it). FastEngine
    delivers a broadcast along the sender's own list and the array
    engine's frontier branch pushes along it too, while the jagged-
    diagonal fold pulls along the receiver's list; only symmetry makes
    the two agree, and nothing checks it.
    """

    __slots__ = ("n", "m", "offsets", "indices", "_degrees", "_uids",
                 "_uid_array", "_neighbor_lists", "_neighbor_sets",
                 "_uid_to_index")

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
        self._degrees = degrees
        self._uids = tuple(uids)
        self._uid_array: Optional[np.ndarray] = None
        self._neighbor_lists: List[List[int]] = None  # built lazily
        self._neighbor_sets: List[frozenset] = None
        self._uid_to_index: Dict[int, int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: DistributedGraph) -> "CSRGraph":
        """Freeze a :class:`DistributedGraph`'s topology into CSR form."""
        degrees = np.fromiter((graph.degree(v) for v in range(graph.n)),
                              dtype=np.int64, count=graph.n)
        offsets = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        indices = np.empty(int(offsets[-1]), dtype=np.int64)
        for v in range(graph.n):
            indices[offsets[v]:offsets[v + 1]] = graph.neighbors(v)
        return cls(offsets, indices,
                   tuple(graph.uid(v) for v in range(graph.n)))

    @classmethod
    def _trusted(cls, offsets: np.ndarray, indices: np.ndarray,
                 uid_array: np.ndarray) -> "CSRGraph":
        """Adopt already-validated arrays without the O(n + m) checks.

        Only for :meth:`load`, whose files were written by :meth:`save`
        from a validated instance — this is what makes a memory-mapped
        open O(1) instead of faulting in every page up front.
        """
        self = object.__new__(cls)
        self.n = int(offsets.size - 1)
        self.m = int(indices.size // 2)
        self.offsets = offsets
        self.indices = indices
        self._degrees = None
        self._uids = None
        self._uid_array = uid_array
        self._neighbor_lists = None
        self._neighbor_sets = None
        self._uid_to_index = None
        return self

    # ------------------------------------------------------------------
    # Persistence (.npy files; mmap-able via np.lib.format.open_memmap)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Write the topology into ``directory`` as three ``.npy`` files.

        UIDs are stored as ``int64`` (via :attr:`uid_array`, so wider
        identifiers are refused loudly rather than truncated). The files
        are written through ``open_memmap``, so graphs larger than
        memory stream straight to disk.
        """
        path = os.fspath(directory)
        uid_array = self.uid_array
        os.makedirs(path, exist_ok=True)
        for name, array in (("offsets", self.offsets),
                            ("indices", self.indices),
                            ("uids", uid_array)):
            out = np.lib.format.open_memmap(
                os.path.join(path, name + ".npy"), mode="w+",
                dtype=np.int64, shape=array.shape)
            out[:] = array
            out.flush()
            del out
        meta = {"format": CSR_FORMAT_VERSION, "n": self.n, "m": self.m}
        with open(os.path.join(path, _META_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory, mmap: bool = True) -> "CSRGraph":
        """Reopen a :meth:`save` directory.

        With ``mmap=True`` (the default) the arrays are memory-mapped
        read-only and pages fault in on first touch — opening is O(1)
        regardless of graph size. ``mmap=False`` reads them into memory.
        Either way the instance runs bit-identically to the one that was
        saved.
        """
        path = os.fspath(directory)
        meta_path = os.path.join(path, _META_NAME)
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"{path} is not a CSRGraph.save directory: {exc}")
        if meta.get("format") != CSR_FORMAT_VERSION:
            raise ConfigurationError(
                f"{path} has CSR format {meta.get('format')!r}; this "
                f"build reads format {CSR_FORMAT_VERSION}")

        def read(name: str) -> np.ndarray:
            file_path = os.path.join(path, name + ".npy")
            if mmap:
                return np.lib.format.open_memmap(file_path, mode="r")
            return np.load(file_path)

        offsets = read("offsets")
        indices = read("indices")
        uid_array = read("uids")
        if (offsets.size - 1 != meta["n"] or indices.size != 2 * meta["m"]
                or uid_array.size != meta["n"]):
            raise ConfigurationError(
                f"{path} is corrupt: array sizes disagree with "
                f"{_META_NAME}")
        return cls._trusted(offsets, indices, uid_array)

    # ------------------------------------------------------------------
    # Derived structures (lazy, so mmap-loaded instances stay O(1))
    # ------------------------------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """``int64[n]`` per-node degrees (``offsets`` differences)."""
        if self._degrees is None:
            self._degrees = np.diff(self.offsets)
        return self._degrees

    @property
    def uids(self) -> Tuple[int, ...]:
        """The n unique identifiers as a tuple of Python ints."""
        if self._uids is None:
            self._uids = tuple(self._uid_array.tolist())
        return self._uids

    @property
    def uid_array(self) -> np.ndarray:
        """UIDs as an ``int64`` array (the array engines' view).

        Raises :class:`~repro.errors.ConfigurationError` when any UID
        exceeds the machine word — the model allows arbitrary-width
        identifiers, numpy does not, and silent truncation would break
        every UID tiebreak.
        """
        if self._uid_array is None:
            try:
                uid_array = np.asarray(self._uids, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                raise ConfigurationError(
                    "UIDs do not fit in int64; the array engines and "
                    "CSRGraph.save require machine-word identifiers")
            self._uid_array = uid_array
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

    def neighbor_list(self, v: int) -> List[int]:
        """Sorted neighbors of ``v`` as a cached Python list of ints."""
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
        if self._uids is None:  # loaded instance: skip the O(n) tuple
            return int(self._uid_array[v])
        return self._uids[v]

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
    # Cached Python-level views (what the fast engine actually reads)
    # ------------------------------------------------------------------
    @property
    def neighbor_lists(self) -> List[List[int]]:
        """Per-node sorted neighbor lists of plain Python ints."""
        if self._neighbor_lists is None:
            flat = self.indices.tolist()
            bounds = self.offsets.tolist()
            self._neighbor_lists = [flat[bounds[v]:bounds[v + 1]]
                                    for v in range(self.n)]
        return self._neighbor_lists

    @property
    def neighbor_sets(self) -> List[frozenset]:
        """Per-node neighbor frozensets (for O(1) membership checks)."""
        if self._neighbor_sets is None:
            self._neighbor_sets = [frozenset(a) for a in self.neighbor_lists]
        return self._neighbor_sets

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


# ----------------------------------------------------------------------
# Content-addressed on-disk graph cache
# ----------------------------------------------------------------------
class GraphCache:
    """Content-addressed store of frozen graph topologies.

    Each entry is a :meth:`CSRGraph.save` directory named by the
    BLAKE2b-128 hex digest of the canonical JSON of its identifying
    fields — the same keying discipline as the trial store — with the
    fields themselves stored alongside in ``spec.json``, so a digest
    collision or a stale foreign entry is detected on load instead of
    silently served. Loads are memory-mapped: hitting the cache for a
    10^6-node graph is O(1).

    Writes go through a per-pid temp directory and an atomic rename, so
    concurrent sweep workers racing on the same entry are safe (first
    rename wins; losers discard their copy).
    """

    _SPEC_NAME = "spec.json"

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    @staticmethod
    def key_of(**fields) -> str:
        """BLAKE2b-128 digest of the canonical JSON of ``fields``."""
        payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def path_of(self, key: str) -> str:
        return os.path.join(self.root, key)

    def entries(self) -> List[str]:
        """Keys currently stored, newest first (by entry mtime)."""
        found = []
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if os.path.isfile(os.path.join(path, self._SPEC_NAME)):
                found.append((os.path.getmtime(path), name))
        return [name for _, name in sorted(found, reverse=True)]

    def load(self, mmap: bool = True, **fields) -> Optional[CSRGraph]:
        """The cached topology for ``fields``, or None on a miss.

        Raises :class:`~repro.errors.ConfigurationError` when the entry
        under this key describes *different* fields — a key collision or
        a corrupted entry, never something to serve silently.
        """
        key = self.key_of(**fields)
        path = self.path_of(key)
        spec_path = os.path.join(path, self._SPEC_NAME)
        try:
            with open(spec_path, encoding="utf-8") as fh:
                stored = json.load(fh)
        except OSError:
            return None
        except ValueError as exc:
            msg = f"graph cache entry {key} has corrupt spec.json: {exc}"
            raise ConfigurationError(msg)
        expected = json.loads(json.dumps(fields))
        if stored != expected:
            msg = (
                f"graph cache key {key} stores {stored!r}, not {expected!r}:"
                f" digest collision or corrupted cache — clear {self.root}"
            )
            raise ConfigurationError(msg)
        os.utime(path)  # LRU recency for prune()
        return CSRGraph.load(path, mmap=mmap)

    def store(self, csr: CSRGraph, **fields) -> str:
        """Persist ``csr`` under the key of ``fields``; returns the key."""
        key = self.key_of(**fields)
        path = self.path_of(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            csr.save(tmp)
            spec = os.path.join(tmp, self._SPEC_NAME)
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(fields, fh, sort_keys=True)
                fh.write("\n")
            try:
                os.rename(tmp, path)
            except OSError:
                pass  # a concurrent writer won the race; keep its entry
        finally:
            if os.path.isdir(tmp):
                shutil.rmtree(tmp, ignore_errors=True)
        return key

    def get(
        self, builder: Callable[[], CSRGraph], mmap: bool = True, **fields
    ) -> CSRGraph:
        """The cached topology, building and storing it on a miss."""
        cached = self.load(mmap=mmap, **fields)
        if cached is not None:
            return cached
        built = builder()
        self.store(built, **fields)
        return built

    def prune(self, keep: int) -> List[str]:
        """Evict the least-recently-used entries beyond ``keep``.

        Returns the evicted keys. ``keep=0`` empties the cache — the
        documented cleanup path (the cache is content-addressed, so
        deleting it is always safe).
        """
        if keep < 0:
            raise ConfigurationError("keep must be >= 0")
        victims = self.entries()[keep:]
        for key in victims:
            shutil.rmtree(self.path_of(key), ignore_errors=True)
        return victims


def default_graph_cache() -> Optional[GraphCache]:
    """The cache named by ``$REPRO_GRAPH_CACHE``, or None when unset."""
    root = os.environ.get(GRAPH_CACHE_ENV)
    if not root:
        return None
    return GraphCache(root)
