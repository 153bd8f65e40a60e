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

All generators return plain ``networkx`` graphs; wrap them in
:class:`~repro.sim.graph.DistributedGraph` to attach UIDs.
"""

from __future__ import annotations

import math
import random
from typing import Optional

import networkx as nx

from ..errors import ConfigurationError


def path(n: int) -> nx.Graph:
    """Path on n nodes — the canonical locality lower-bound instance."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return nx.path_graph(n)


def cycle(n: int) -> nx.Graph:
    """Cycle on n nodes."""
    if n < 3:
        raise ConfigurationError("cycle needs n >= 3")
    return nx.cycle_graph(n)


def grid(rows: int, cols: int) -> nx.Graph:
    """rows x cols grid — bounded growth, many far-apart neighborhoods."""
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    g = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def gnp(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p), forced connected by bridging components."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if not 0 <= p <= 1:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    g = nx.gnp_random_graph(n, p, seed=seed)
    return _bridge_components(g, seed)


def random_regular(n: int, d: int, seed: int = 0) -> nx.Graph:
    """Random d-regular graph — the symmetry-breaking stress test."""
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
    return nx.random_regular_graph(d, n, seed=seed)


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labeled tree (Prüfer)."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n <= 2:
        return nx.path_graph(n)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


def complete_tree(branching: int, height: int) -> nx.Graph:
    """Complete ``branching``-ary tree of the given height."""
    if branching < 1 or height < 0:
        raise ConfigurationError("branching >= 1 and height >= 0 required")
    g = nx.balanced_tree(branching, height)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def caterpillar(spine: int, legs: int) -> nx.Graph:
    """Path of length ``spine`` with ``legs`` pendant nodes per spine node."""
    if spine < 1 or legs < 0:
        raise ConfigurationError("spine >= 1 and legs >= 0 required")
    g = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs):
            g.add_edge(v, next_id)
            next_id += 1
    return g


def cluster_of_cliques(num_cliques: int, clique_size: int,
                       chain: bool = True) -> nx.Graph:
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
    g = nx.Graph()
    anchors = []
    for c in range(num_cliques):
        base = c * clique_size
        members = list(range(base, base + clique_size))
        g.add_nodes_from(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                g.add_edge(u, v)
        anchors.append(base)
    for i in range(1, num_cliques):
        if chain:
            g.add_edge(anchors[i - 1], anchors[i])
        else:
            g.add_edge(anchors[0], anchors[i])
    return g


def dumbbell(side: int, bar: int) -> nx.Graph:
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
    g = nx.Graph()
    left = list(range(side))
    right = list(range(side, 2 * side))
    for group in (left, right):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                g.add_edge(u, v)
    prev = left[0]
    next_id = 2 * side
    for _ in range(bar):
        g.add_edge(prev, next_id)
        prev = next_id
        next_id += 1
    g.add_edge(prev, right[0])
    return g


def lopsided(n: int, hubs: Optional[int] = None) -> nx.Graph:
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
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for h in range(1, hubs):
        g.add_edge(h - 1, h)
    for leaf in range(hubs, n):
        g.add_edge((leaf - hubs) % hubs, leaf)
    return g


def expander(n: int, seed: int = 0) -> nx.Graph:
    """A bounded-degree expander: the Margulis–Gabber–Galil construction.

    Built on the s x s torus (s = ceil(sqrt(n)), so the graph has s^2 >= n
    nodes), degree <= 8, constant spectral expansion — the topology where
    neighborhoods grow fastest, stressing any locality-based argument.
    The multigraph edges/self-loops of the construction are simplified.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    side = max(2, math.isqrt(n - 1) + 1)
    multi = nx.margulis_gabber_galil_graph(side)
    g = nx.Graph()
    g.add_nodes_from(multi.nodes())
    g.add_edges_from((u, v) for u, v in multi.edges() if u != v)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def _bridge_components(g: nx.Graph, seed: int) -> nx.Graph:
    """Connect a possibly-disconnected graph with minimal extra edges."""
    components = [sorted(c) for c in nx.connected_components(g)]
    if len(components) <= 1:
        return g
    rng = random.Random(seed + 1)
    for prev, cur in zip(components, components[1:]):
        g.add_edge(rng.choice(prev), rng.choice(cur))
    return g


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


def make(family: str, n: int, seed: int = 0) -> nx.Graph:
    """Instantiate a named family at (approximately) size n."""
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    return FAMILIES[family](n, seed=seed)
