"""DistributedGraph: identifiers, topology access, distance helpers,
and networkx as its input format only."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decomposition import (
    deterministic_decomposition,
    elkin_neiman,
    shared_randomness_decomposition,
    shattering_decomposition,
    sparse_bits_decomposition,
)
from repro.core.coloring import trial_coloring
from repro.core.linial import reduce_to_three_colors
from repro.core.mis import luby_mis
from repro.core.sinkless import randomized_orientation_engine, tree_orientation
from repro.errors import ConfigurationError
from repro.graphs import FAMILIES, assign, make
from repro.randomness import IndependentSource, SparseRandomness
from repro.sim.graph import DistributedGraph
from repro.sim.primitives import build_bfs_forest, flood_min
from repro.structures import Decomposition

from helpers import nx_copy, to_nx

#: Labels of mutually unorderable types: indices fall back to the
#: type-then-repr order.
MIXED = nx.Graph([("a", 1), (1, 2.5), ("b", "a"), ((1, 2), 2.5), (3, "b")])


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.Graph())

    def test_uids_unique_and_in_range(self):
        g = DistributedGraph(nx.path_graph(20), uid_seed=1)
        uids = [g.uid(v) for v in g.nodes()]
        assert len(set(uids)) == 20
        assert all(1 <= u <= 20 ** 3 for u in uids)

    def test_explicit_uids(self):
        g = DistributedGraph(nx.path_graph(3), uids=[10, 20, 30])
        assert [g.uid(v) for v in g.nodes()] == [10, 20, 30]
        assert g.index_of_uid(20) == 1

    def test_explicit_uids_validated(self):
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.path_graph(3), uids=[1, 1, 2])
        with pytest.raises(ConfigurationError):
            DistributedGraph(nx.path_graph(3), uids=[1, 2])

    def test_uid_bits_is_logarithmic(self):
        g = DistributedGraph(nx.path_graph(100), uid_seed=2)
        assert g.uid_bits() <= 3 * 7 + 2  # 3 log2(100) + slack

    def test_labels_preserved(self):
        raw = nx.Graph([("a", "b"), ("b", "c")])
        g = DistributedGraph(raw)
        assert sorted(g.labels) == ["a", "b", "c"]

    def test_same_seed_same_uids(self):
        g1 = DistributedGraph(nx.path_graph(10), uid_seed=7)
        g2 = DistributedGraph(nx.path_graph(10), uid_seed=7)
        assert [g1.uid(v) for v in g1.nodes()] == [g2.uid(v) for v in g2.nodes()]


class TestTopology:
    def test_neighbors_sorted(self):
        g = DistributedGraph(nx.star_graph(5))
        assert g.neighbors(0) == (1, 2, 3, 4, 5)

    def test_degree_and_max_degree(self):
        g = DistributedGraph(nx.star_graph(5))
        assert g.degree(0) == 5
        assert g.degree(1) == 1
        assert g.max_degree() == 5

    def test_edges_canonical(self):
        g = DistributedGraph(nx.cycle_graph(4))
        for u, v in g.edges():
            assert u < v

    def test_ball_distances(self):
        g = DistributedGraph(nx.path_graph(10))
        ball = g.ball(5, 2)
        assert ball == {5: 0, 4: 1, 6: 1, 3: 2, 7: 2}

    def test_distance(self):
        g = DistributedGraph(nx.path_graph(10))
        assert g.distance(0, 9) == 9
        assert g.distance(3, 3) == 0

    def test_distance_disconnected_is_none(self):
        raw = nx.Graph()
        raw.add_edge(0, 1)
        raw.add_node(2)
        g = DistributedGraph(raw)
        assert g.distance(0, 2) is None

    def test_connected_components(self):
        raw = nx.Graph([(0, 1)])
        raw.add_node(2)
        g = DistributedGraph(raw)
        comps = g.connected_components()
        assert sorted(map(sorted, comps)) == [[0, 1], [2]]

    def test_subgraph_diameter(self):
        # The strong diameter of one cluster is its induced diameter.
        g = DistributedGraph(nx.path_graph(10))
        cluster = Decomposition(cluster_of={2: 0, 3: 0, 4: 0},
                                color_of={0: 0})
        assert cluster.max_strong_diameter(g) == 2
        singleton = Decomposition(cluster_of={5: 0}, color_of={0: 0})
        assert singleton.max_strong_diameter(g) == 0

    def test_weak_diameter_uses_g_distances(self):
        g = DistributedGraph(nx.cycle_graph(8))
        # 0 and 4 are opposite; weak diameter through G is 4 even though
        # the induced subgraph {0, 4} is disconnected.
        assert g.weak_diameter([0, 4]) == 4

    def test_weak_diameter_rejects_cross_component(self):
        raw = nx.Graph([(0, 1)])
        raw.add_node(2)
        g = DistributedGraph(raw)
        with pytest.raises(ConfigurationError):
            g.weak_diameter([0, 2])


class TestPowerGraph:
    def test_power_graph_edges(self):
        g = DistributedGraph(nx.path_graph(6), uid_seed=1)
        g2 = g.power_graph(2)
        assert g2.neighbors(0) == (1, 2)

    def test_power_preserves_uids(self):
        g = DistributedGraph(nx.path_graph(6), uid_seed=1)
        g2 = g.power_graph(3)
        assert [g2.uid(v) for v in g2.nodes()] == [g.uid(v) for v in g.nodes()]

    def test_power_validates(self):
        g = DistributedGraph(nx.path_graph(3))
        with pytest.raises(ConfigurationError):
            g.power_graph(0)

    @given(r=st.integers(1, 4))
    def test_power_distance_semantics(self, r):
        g = DistributedGraph(nx.cycle_graph(11))
        gr = g.power_graph(r)
        for u in range(11):
            for v in range(u + 1, 11):
                expected = g.distance(u, v) <= r
                assert (v in gr.neighbors(u)) == expected


class TestReprAndBounds:
    def test_repr_mentions_size(self):
        g = DistributedGraph(nx.path_graph(5))
        assert "n=5" in repr(g)

    def test_eccentricity_bound(self):
        g = DistributedGraph(nx.path_graph(5))
        assert g.eccentricity_bound() >= 4


def sources():
    """Every family at two sizes, plus the mixed-label graph."""
    for name in sorted(FAMILIES):
        for n in (30, 200):
            yield f"{name}-{n}", make(name, n, seed=4)
    yield "mixed", MIXED


class TestNetworkxView:
    """networkx is only the input: indices follow sorted labels, the
    tests' networkx view (``helpers.nx_copy``) is a relabel copy, and no
    algorithm, checker or engine builds a networkx graph."""

    @pytest.mark.parametrize("source", [pytest.param(source, id=name)
                                        for name, source in sources()])
    def test_view_matches_relabel_copy(self, source):
        g = DistributedGraph(source, uid_seed=1)
        source = to_nx(source)
        index_of = {label: i for i, label in enumerate(g.labels)}
        expected = nx.relabel_nodes(source, index_of, copy=True)
        view = nx_copy(g)
        assert set(view.nodes()) == set(expected.nodes())
        for v in expected.nodes():
            assert list(view.adj[v]) == list(expected.adj[v]), v
        assert list(g.edges()) == [(min(e), max(e)) for e in expected.edges()]

    def test_expander_input_order_is_not_sorted(self):
        # Indices follow the sorted labels, not the input's node order.
        source = make("expander", 30, seed=4)
        assert list(source.nodes()) != sorted(source.nodes())
        g = DistributedGraph(source)
        assert g.labels == sorted(source.nodes())
        assert list(nx_copy(g).nodes()) == list(g.nodes())

    def test_mixed_labels_use_type_then_repr_order(self):
        g = DistributedGraph(MIXED)
        assert g.labels == [2.5, 1, 3, "a", "b", (1, 2)]
        assert g.neighbors(g.labels.index("a")) == (1, 4)

    def test_engines_and_checkers_leave_view_unbuilt(self, monkeypatch):
        g = assign(make("gnp-sparse", 60, seed=5), "random", seed=5)
        tree = assign(make("tree", 40, seed=5), "random", seed=5)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a networkx graph was built")

        monkeypatch.setattr(nx.Graph, "__init__", refuse)
        dec, _r, _e = elkin_neiman(g, IndependentSource(seed=3),
                                   finish="singletons")
        assert not dec.violations(g, max_diameter=g.n, strong=True)
        dec, _r, _e = shared_randomness_decomposition(g, seed=2,
                                                      strict=False)
        assert not dec.violations(g, max_diameter=g.n, strong=True)
        dec, _r = deterministic_decomposition(g)
        assert not dec.violations(g, max_diameter=g.n, strong=True)
        dec, _r, _e = shattering_decomposition(
            g, IndependentSource(seed=3), en_phases=1, cap=2)
        assert not dec.violations(g)
        source = SparseRandomness.for_graph(g, h=1, seed=3)
        assert source.verify_covering(g)
        dec, _r, _e = sparse_bits_decomposition(g, source, spacing=4,
                                                strict=False)
        assert not dec.violations(g)
        tree_orientation(tree)
        assert len(g.connected_components()) >= 1
        luby_mis(g, IndependentSource(seed=3))
        flood_min(g, 4)
        build_bfs_forest(g, {0})
        trial_coloring(g, IndependentSource(seed=3))
        randomized_orientation_engine(g, IndependentSource(seed=3))
        reduce_to_three_colors(assign(make("cycle", 30), "random", seed=5))
