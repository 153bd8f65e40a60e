"""Solution structures: Decomposition, SplittingInstance, Hypergraph."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.graph import DistributedGraph
from repro.structures import (
    Decomposition,
    Hypergraph,
    SplittingInstance,
    conflict_free_ok,
)


def three_blocks(cycle12):
    """Cycle of 12 split into 4 consecutive blocks of 3, colors 0,1,2,0->needs 3."""
    cluster_of = {v: v // 3 for v in range(12)}
    color_of = {0: 0, 1: 1, 2: 0, 3: 1}
    return Decomposition(cluster_of=cluster_of, color_of=color_of)


class TestDecomposition:
    def test_valid_decomposition(self, cycle12):
        d = three_blocks(cycle12)
        assert d.violations(cycle12) == []
        assert d.is_valid(cycle12, max_colors=2, max_diameter=2, strong=True)

    def test_clusters_partition(self, cycle12):
        d = three_blocks(cycle12)
        clusters = d.clusters()
        assert sorted(v for c in clusters.values() for v in c) == list(range(12))
        assert len(clusters) == 4

    def test_detects_missing_nodes(self, cycle12):
        d = three_blocks(cycle12)
        del d.cluster_of[5]
        assert any("unassigned" in p for p in d.violations(cycle12))

    def test_detects_adjacent_same_color(self, cycle12):
        d = three_blocks(cycle12)
        d.color_of[1] = 0  # clusters 0 and 1 are adjacent
        assert any("share color" in p for p in d.violations(cycle12))

    def test_detects_uncolored_cluster(self, cycle12):
        d = three_blocks(cycle12)
        del d.color_of[2]
        assert any("no color" in p for p in d.violations(cycle12))

    def test_detects_color_budget(self, cycle12):
        d = three_blocks(cycle12)
        assert not d.is_valid(cycle12, max_colors=1)

    def test_detects_diameter_budget(self, cycle12):
        d = three_blocks(cycle12)
        assert not d.is_valid(cycle12, max_diameter=1)

    def test_strong_vs_weak_diameter(self, cycle12):
        # Two antipodal singletons merged into one cluster: weak diameter
        # 6 but disconnected induced subgraph (strong diameter broken).
        cluster_of = {v: (0 if v in (0, 6) else 1) for v in range(12)}
        color_of = {0: 0, 1: 1}
        d = Decomposition(cluster_of=cluster_of, color_of=color_of)
        assert d.max_weak_diameter(cycle12) >= 6
        assert d.max_strong_diameter(cycle12) == cycle12.n  # sentinel

    def test_strong_diameter_ignores_unassigned_nodes(self, cycle12):
        # Nodes outside cluster_of neither join a cluster nor relay.
        d = Decomposition(cluster_of={0: 7, 1: 7, 2: 7, 4: 9},
                          color_of={7: 0, 9: 0})
        assert d.max_strong_diameter(cycle12) == 2
        d.cluster_of[11] = 7  # 11-0-1-2 is still a path inside the cluster
        assert d.max_strong_diameter(cycle12) == 3

    def test_color_of_node(self, cycle12):
        d = three_blocks(cycle12)
        assert d.color_of_node(0) == 0
        assert d.color_of_node(3) == 1

    def test_congestion_without_trees_is_one(self, cycle12):
        assert three_blocks(cycle12).congestion() == 1

    def test_congestion_with_overlapping_trees(self, cycle12):
        d = three_blocks(cycle12)
        # Two same-color clusters whose trees share node 0.
        d.trees = {
            0: [(0, 1), (1, 2)],
            2: [(6, 7), (7, 8), (0, 1)],  # cluster 2 also uses node 0
            1: [(3, 4), (4, 5)],
            3: [(9, 10), (10, 11)],
        }
        assert d.congestion() == 2

    def test_normalize_colors(self, cycle12):
        cluster_of = {v: v // 3 for v in range(12)}
        color_of = {0: 5, 1: 17, 2: 5, 3: 17}
        d = Decomposition(cluster_of=cluster_of, color_of=color_of)
        d.normalize_colors()
        assert set(d.color_of.values()) == {0, 1}
        assert d.color_of[0] == 0 and d.color_of[1] == 1

    def test_single_cluster_baseline(self, cycle12):
        d = Decomposition.single_cluster(cycle12)
        assert d.is_valid(cycle12)
        assert d.num_colors() == 1


class TestSplittingInstance:
    def test_valid_instance(self):
        inst = SplittingInstance(
            u_side=[0], v_side=[0, 1, 2],
            adjacency={0: [0, 1, 2]}, min_degree=3)
        assert inst.is_satisfied({0: 0, 1: 1, 2: 0})
        assert not inst.is_satisfied({0: 0, 1: 0, 2: 0})

    def test_violated_nodes(self):
        inst = SplittingInstance(
            u_side=[0, 1], v_side=[0, 1, 2, 3],
            adjacency={0: [0, 1], 1: [2, 3]}, min_degree=2)
        coloring = {0: 0, 1: 1, 2: 0, 3: 0}
        assert inst.violated_nodes(coloring) == [1]

    def test_degree_promise_enforced(self):
        with pytest.raises(ConfigurationError):
            SplittingInstance(
                u_side=[0], v_side=[0, 1],
                adjacency={0: [0]}, min_degree=2)

    def test_neighbors_must_be_in_v(self):
        with pytest.raises(ConfigurationError):
            SplittingInstance(
                u_side=[0], v_side=[0],
                adjacency={0: [0, 99]}, min_degree=1)


class TestHypergraph:
    def test_size_classes(self):
        hg = Hypergraph(
            vertices=list(range(10)),
            edges=[frozenset({0}), frozenset({1, 2}),
                   frozenset({3, 4, 5}), frozenset(range(5, 10))])
        classes = hg.classes()
        assert hg.size_class(frozenset({0})) == 1
        assert hg.size_class(frozenset({1, 2})) == 2
        assert hg.size_class(frozenset({3, 4, 5})) == 3
        assert sum(len(es) for es in classes.values()) == 4

    def test_rejects_empty_edge(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(vertices=[0], edges=[frozenset()])

    def test_rejects_stray_vertices(self):
        with pytest.raises(ConfigurationError):
            Hypergraph(vertices=[0], edges=[frozenset({0, 1})])

    def test_conflict_free_ok(self):
        hg = Hypergraph(vertices=[0, 1, 2],
                        edges=[frozenset({0, 1, 2})])
        assert conflict_free_ok(hg, {0: {"a"}, 1: {"a"}, 2: {"b"}})
        assert not conflict_free_ok(hg, {0: {"a"}, 1: {"a"}, 2: set()})
        # A color held twice plus one unique color still passes.
        assert conflict_free_ok(hg, {0: {"a", "c"}, 1: {"a"}, 2: {"b"}})
        # All colors held exactly twice: no unique color anywhere.
        assert not conflict_free_ok(hg, {0: {"a", "c"}, 1: {"a"}, 2: {"c"}})


def oracle_strong_diameter(source: nx.Graph, cluster_of) -> int:
    """Max over clusters of the all-pairs BFS diameter of G[C] (n if
    some G[C] is disconnected), straight from networkx."""
    clusters = {}
    for v, c in cluster_of.items():
        clusters.setdefault(c, []).append(v)
    worst = 0
    for members in clusters.values():
        sub = source.subgraph(members)
        if not nx.is_connected(sub):
            return source.number_of_nodes()
        for _v, lengths in nx.all_pairs_shortest_path_length(sub):
            worst = max(worst, max(lengths.values()))
    return worst


@st.composite
def decompositions(draw):
    """A G(n, p) plus clusters that are connected (nearest of some
    centers), arbitrary (often disconnected) or singletons."""
    n = draw(st.integers(1, 30))
    source = nx.gnp_random_graph(n, draw(st.floats(0.0, 0.4)),
                                 seed=draw(st.integers(0, 10_000)))
    style = draw(st.sampled_from(["voronoi", "arbitrary", "singletons"]))
    if style == "singletons":
        cluster_of = {v: 3 * v + 1 for v in range(n)}
    elif style == "arbitrary":
        k = draw(st.integers(1, 4))
        cluster_of = {v: draw(st.integers(0, k - 1)) for v in range(n)}
    else:
        centers = draw(st.sets(st.integers(0, n - 1), min_size=1))
        lengths = {c: nx.single_source_shortest_path_length(source, c)
                   for c in centers}
        cluster_of = {}
        for v in range(n):
            reach = [(lengths[c][v], c) for c in centers if v in lengths[c]]
            cluster_of[v] = min(reach)[1] if reach else -1 - v
    return source, cluster_of


class TestStrongDiameterParity:
    @given(decompositions())
    def test_matches_networkx_all_pairs(self, case):
        source, cluster_of = case
        d = Decomposition(cluster_of=cluster_of,
                          color_of={c: 0 for c in cluster_of.values()})
        assert (d.max_strong_diameter(DistributedGraph(source))
                == oracle_strong_diameter(source, cluster_of))
