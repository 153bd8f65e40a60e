"""Witness graph families for the experiments.

The theorems hold for every graph; the experiments need families that
stress the quantities each proof cares about:

* long paths / cycles — locality and decomposition diameter;
* random regular graphs — the symmetric instances where randomness is
  genuinely needed (symmetry breaking);
* GNP — generic dense/sparse instances;
* trees — the ∆-coloring / sinkless-orientation landscape (Section 1.1);
* grids — bounded growth, many separated neighborhoods (Theorem 4.2's
  separated-set argument);
* cluster-of-cliques / dumbbells — adversarial diameters for clustering;
* caterpillars — high-degree low-diameter mixtures.

Every generator but :func:`expander` returns an
:class:`~repro.sim.graph.EdgeList` built without networkx; wrap it in
:class:`~repro.sim.graph.DistributedGraph` (or an ID scheme of
:mod:`repro.graphs.ids`) to attach UIDs. Each one reproduces, edge for
edge and in insertion order, the networkx generator it replaced (the
tests hold them to those generators), so the edge order that sinkless
orientation's coins follow is unchanged. :func:`expander` still builds
its networkx graph, importing networkx only when called.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from itertools import combinations
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.batch.csr import component_labels, edges_to_csr
from ..sim.graph import EdgeList


def _pairs(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    return np.column_stack((tails, heads))


def path(n: int) -> EdgeList:
    """Path on n nodes — the canonical locality lower-bound instance."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return EdgeList(n, _pairs(np.arange(n - 1), np.arange(1, n)))


def cycle(n: int) -> EdgeList:
    """Cycle on n nodes."""
    if n < 3:
        raise ConfigurationError("cycle needs n >= 3")
    return EdgeList(n, _pairs(np.arange(n), (np.arange(n) + 1) % n))


def grid(rows: int, cols: int) -> EdgeList:
    """rows x cols grid — bounded growth, many far-apart neighborhoods.

    Node ``(i, j)`` is ``i * cols + j``; each node adds its down, then
    its right edge."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    node = np.arange(rows * cols).reshape(rows, cols)
    tails = np.concatenate((node[:-1].ravel(), node[:, :-1].ravel()))
    heads = np.concatenate((node[1:].ravel(), node[:, 1:].ravel()))
    order = np.argsort(tails, kind="stable")
    return EdgeList(rows * cols, _pairs(tails[order], heads[order]))


def gnp(n: int, p: float, seed: int = 0) -> EdgeList:
    """Erdős–Rényi G(n, p), forced connected by bridging components."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if not 0 <= p <= 1:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    draw = random.Random(seed).random
    edges = [pair for pair in combinations(range(n), 2) if draw() < p]
    return _bridge_components(n, edges, seed)


def random_regular(n: int, d: int, seed: int = 0) -> EdgeList:
    """Random d-regular graph — the symmetry-breaking stress test.

    Steger–Wormald pairing: shuffle ``d`` stubs per node, pair them off,
    re-pair the stubs of self-loops and repeated edges, and restart when
    no re-pairing can succeed. The edges come out in the iteration
    order of the edge set.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if d < 1:
        raise ConfigurationError(
            f"degree must be >= 1, got {d} (a 0-regular graph has no "
            f"edges — not a regular-graph instance worth sweeping)")
    if n * d % 2 != 0:
        raise ConfigurationError("n * d must be even for a d-regular graph")
    if d >= n:
        raise ConfigurationError("degree must be < n")
    rng = random.Random(seed)
    edges = _pair_stubs(n, d, rng)
    while edges is None:
        edges = _pair_stubs(n, d, rng)
    return EdgeList(n, list(edges))


def _suitable(edges: set, potential_edges: dict) -> bool:
    """Whether some two leftover stubs still form a new edge."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _pair_stubs(n: int, d: int, rng: random.Random) -> Optional[set]:
    """One pairing attempt of :func:`random_regular`; None on a dead end."""
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        potential_edges = defaultdict(int)
        rng.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and ((s1, s2) not in edges):
                edges.add((s1, s2))
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [node for node, potential in potential_edges.items()
                 for _ in range(potential)]
    return edges


def random_tree(n: int, seed: int = 0) -> EdgeList:
    """Uniform random labeled tree (Prüfer)."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n <= 2:
        return path(n)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    # Linear-time decoding: join each code entry to the smallest node
    # whose remaining degree (plus one) has dropped to 1.
    degree = Counter(prufer)
    degree.update(range(n))
    edges = []
    index = u = next(k for k in range(n) if degree[k] == 1)
    for v in prufer:
        edges.append((u, v))
        degree[v] -= 1
        if v < index and degree[v] == 1:
            u = v
        else:
            index = u = next(k for k in range(index + 1, n)
                             if degree[k] == 1)
    joined = {u for u, _ in edges}
    edges.append(tuple(v for v in range(n) if v not in joined))
    return EdgeList(n, edges)


def complete_tree(branching: int, height: int) -> EdgeList:
    """Complete ``branching``-ary tree of the given height (node ``c``'s
    parent is ``(c - 1) // branching``)."""
    if branching < 1 or height < 0:
        raise ConfigurationError("branching >= 1 and height >= 0 required")
    if branching == 1:
        n = height + 1
    else:
        n = (branching ** (height + 1) - 1) // (branching - 1)
    child = np.arange(1, n)
    return EdgeList(n, _pairs((child - 1) // branching, child))


def caterpillar(spine: int, legs: int) -> EdgeList:
    """Path of length ``spine`` with ``legs`` pendant nodes per spine node."""
    if spine < 1 or legs < 0:
        raise ConfigurationError("spine >= 1 and legs >= 0 required")
    feet = np.arange(spine, spine + spine * legs)
    return EdgeList(spine + spine * legs, np.concatenate((
        _pairs(np.arange(spine - 1), np.arange(1, spine)),
        _pairs((feet - spine) // max(1, legs), feet))))


def cluster_of_cliques(num_cliques: int, clique_size: int,
                       chain: bool = True) -> EdgeList:
    """Cliques joined by single edges (in a chain or a star).

    Hard for clustering: low-diameter dense pockets separated by cut
    edges, the structure that random-shift decompositions must respect.
    """
    if num_cliques < 1:
        raise ConfigurationError("num_cliques must be >= 1")
    if clique_size < 2:
        raise ConfigurationError(
            f"clique_size must be >= 2, got {clique_size} (a 1-clique has "
            f"no edges — the result would be a bare path/star, not a "
            f"cluster of cliques)")
    edges = []
    for base in range(0, num_cliques * clique_size, clique_size):
        edges += combinations(range(base, base + clique_size), 2)
    for i in range(1, num_cliques):
        hub = (i - 1) * clique_size if chain else 0
        edges.append((hub, i * clique_size))
    return EdgeList(num_cliques * clique_size, edges)


def dumbbell(side: int, bar: int) -> EdgeList:
    """Two cliques of size ``side`` joined by a path of ``bar`` nodes."""
    if side < 2:
        raise ConfigurationError(
            f"side must be >= 2, got {side} (a 1-node 'clique' makes the "
            f"dumbbell a bare path)")
    if bar < 1:
        raise ConfigurationError(
            f"bar must be >= 1, got {bar} (a dumbbell with no bar nodes "
            f"is just two cliques sharing an edge — use cluster_of_cliques "
            f"for that shape)")
    walk = [0, *range(2 * side, 2 * side + bar), side]
    return EdgeList(2 * side + bar, [*combinations(range(side), 2),
                                     *combinations(range(side, 2 * side), 2),
                                     *zip(walk, walk[1:])])


def lopsided(n: int, hubs: Optional[int] = None) -> EdgeList:
    """A chain of star hubs: few Θ(n/hubs)-degree hubs, many degree-1 leaves.

    The maximally skewed degree distribution: a handful of hubs carry
    essentially all edges while every other node is a pendant leaf.
    Stresses anything that pays per-neighbor (CONGEST fan-out, priority
    contention in Luby, cluster growing around high-degree centers).
    """
    if n < 2:
        raise ConfigurationError("lopsided needs n >= 2")
    if hubs is None:
        hubs = max(1, n // 16)
    if not 1 <= hubs <= n - 1:
        raise ConfigurationError(
            f"hubs must be in [1, n-1], got {hubs} (every hub needs at "
            f"least the chance of a leaf)")
    leaves = np.arange(hubs, n)
    return EdgeList(n, np.concatenate((
        _pairs(np.arange(hubs - 1), np.arange(1, hubs)),
        _pairs((leaves - hubs) % hubs, leaves))))


def expander(n: int, seed: int = 0):
    """A bounded-degree expander: the Margulis–Gabber–Galil construction.

    Built on the s x s torus (s = ceil(sqrt(n)), so the graph has s^2 >= n
    nodes), degree <= 8, constant spectral expansion — the topology where
    neighborhoods grow fastest, stressing any locality-based argument.
    The multigraph edges/self-loops of the construction are simplified.
    The one family still built by networkx: returns a networkx graph
    (whose node order is not sorted).
    """
    import networkx as nx

    if n < 1:
        raise ConfigurationError("n must be >= 1")
    side = max(2, math.isqrt(n - 1) + 1)
    multi = nx.margulis_gabber_galil_graph(side)
    g = nx.Graph()
    g.add_nodes_from(multi.nodes())
    g.add_edges_from((u, v) for u, v in multi.edges() if u != v)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def _bridge_components(n: int, edges: list, seed: int) -> EdgeList:
    """Connect a possibly-disconnected graph with minimal extra edges:
    one between random members of each pair of consecutive components
    (ordered by smallest node)."""
    graph = EdgeList(n, edges)
    label = component_labels(*edges_to_csr(n, graph.edges))
    if not label.size or label.max() == 0:
        return graph
    members = np.argsort(label, kind="stable")
    bounds = np.cumsum(np.bincount(label))[:-1]
    components = [part.tolist() for part in np.split(members, bounds)]
    rng = random.Random(seed + 1)
    for prev, cur in zip(components, components[1:]):
        edges.append((rng.choice(prev), rng.choice(cur)))
    return EdgeList(n, edges)


#: Named family registry used by experiments and tests.
FAMILIES = {
    "path": lambda n, seed=0: path(n),
    "cycle": lambda n, seed=0: cycle(max(3, n)),
    "grid": lambda n, seed=0: grid(max(1, int(n ** 0.5)),
                                   max(1, round(n / max(1, int(n ** 0.5))))),
    "gnp-sparse": lambda n, seed=0: gnp(n, min(1.0, 2.0 / max(1, n - 1)), seed),
    "gnp-dense": lambda n, seed=0: gnp(n, min(1.0, 10.0 / max(1, n - 1)), seed),
    "regular-3": lambda n, seed=0: random_regular(n + (n * 3) % 2, 3, seed),
    "regular-4": lambda n, seed=0: random_regular(max(5, n), 4, seed),
    "tree": lambda n, seed=0: random_tree(n, seed),
    "cliques": lambda n, seed=0: cluster_of_cliques(max(1, n // 8), 8),
    "expander": lambda n, seed=0: expander(n, seed),
    "caterpillar": lambda n, seed=0: caterpillar(max(1, n // 4), 3),
    "dumbbell": lambda n, seed=0: dumbbell(max(2, n // 3),
                                           max(1, n - 2 * max(2, n // 3))),
    "lopsided": lambda n, seed=0: lopsided(max(2, n)),
}


#: Families whose topology ignores ``seed`` entirely — every seed yields
#: the same graph. :func:`repro.graphs.ids.trial_graph` uses this to
#: deduplicate graph builds across seeds.
SEED_INVARIANT_FAMILIES = frozenset({
    "path", "cycle", "grid", "cliques", "caterpillar", "dumbbell",
    "lopsided",
})


def make(family: str, n: int, seed: int = 0):
    """Instantiate a named family at (approximately) size n."""
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    return FAMILIES[family](n, seed=seed)
