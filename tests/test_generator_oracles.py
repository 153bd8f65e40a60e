"""The edge-list graph families against the networkx generators they
replaced (``helpers.NX_FAMILIES``): the same nodes, the same adjacency in
the same insertion order, and so the same ``edges()`` order — which
sinkless orientation's coins follow — over many (n, seed) pairs, the
refusals included. ``adversarial_path_ids`` (a BFS in adjacency order)
and ``DistributedGraph.power_graph`` are held to their networkx versions
on every family."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NX_FAMILIES,
    nx_adversarial_uids,
    nx_caterpillar,
    nx_cluster_of_cliques,
    nx_complete_tree,
    nx_dumbbell,
    nx_gnp,
    nx_grid,
    nx_lopsided,
    nx_power_graph,
    nx_random_regular,
    nx_random_tree,
    to_nx,
)
from repro.errors import ConfigurationError
from repro.graphs import FAMILIES, adversarial_path_ids, make
from repro.graphs.generators import (
    caterpillar,
    cluster_of_cliques,
    complete_tree,
    dumbbell,
    gnp,
    grid,
    lopsided,
    random_regular,
    random_tree,
)
from repro.sim.graph import DistributedGraph, EdgeList

SIZES = (*range(1, 34), 48, 64, 65, 100, 127, 200)
PORTED = sorted(NX_FAMILIES)


def assert_same_graph(got: EdgeList, want: nx.Graph) -> None:
    """``got`` stands for ``want`` exactly: nodes, every node's neighbor
    order, and the edge order of both the view and the built graph."""
    assert isinstance(got, EdgeList)
    view = to_nx(got)
    assert list(view.nodes()) == list(want.nodes())
    for v in want.nodes():
        assert list(view.adj[v]) == list(want.adj[v]), v
    assert list(view.edges()) == list(want.edges())
    assert (list(DistributedGraph(got).edges())
            == list(DistributedGraph(want).edges()))


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (ConfigurationError, nx.NetworkXError) as exc:
        return type(exc)


class TestFamilies:
    @pytest.mark.parametrize("family", PORTED)
    def test_family_matches_networkx(self, family):
        for n in SIZES:
            for seed in range(3):
                want = outcome(NX_FAMILIES[family], n, seed=seed)
                got = outcome(FAMILIES[family], n, seed=seed)
                if isinstance(want, type):
                    assert isinstance(got, type), (family, n, seed)
                    continue
                assert_same_graph(got, want)

    @given(n=st.integers(1, 150), p=st.floats(0, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_gnp_any_p(self, n, p, seed):
        assert_same_graph(gnp(n, p, seed), nx_gnp(n, p, seed))

    def test_gnp_bridges_components(self):
        bridged = 0
        for seed in range(40):
            raw = nx.gnp_random_graph(60, 1.2 / 59, seed=seed)
            bridged += not nx.is_connected(raw)
            got = gnp(60, 1.2 / 59, seed)
            assert_same_graph(got, nx_gnp(60, 1.2 / 59, seed))
            assert nx.is_connected(to_nx(got))
        assert bridged >= 30  # the bridging path ran on most seeds

    @given(n=st.integers(2, 70), d=st.integers(1, 8), seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_random_regular(self, n, d, seed):
        if n * d % 2 or d >= n:
            with pytest.raises(ConfigurationError):
                random_regular(n, d, seed)
            return
        assert_same_graph(random_regular(n, d, seed),
                          nx_random_regular(n, d, seed))

    def test_random_regular_refusals(self):
        with pytest.raises(ConfigurationError, match="even"):
            random_regular(9, 3)
        with pytest.raises(ConfigurationError, match="< n"):
            random_regular(4, 4)
        with pytest.raises(ConfigurationError, match="< n"):
            random_regular(4, 6)
        with pytest.raises(ConfigurationError, match=">= 1"):
            random_regular(4, 0)

    @given(n=st.integers(1, 200), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_tree(self, n, seed):
        assert_same_graph(random_tree(n, seed), nx_random_tree(n, seed))

    @given(rows=st.integers(1, 12), cols=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_grid(self, rows, cols):
        assert_same_graph(grid(rows, cols), nx_grid(rows, cols))

    @given(branching=st.integers(1, 4), height=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_complete_tree(self, branching, height):
        assert_same_graph(complete_tree(branching, height),
                          nx_complete_tree(branching, height))

    @given(spine=st.integers(1, 12), legs=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_caterpillar(self, spine, legs):
        assert_same_graph(caterpillar(spine, legs), nx_caterpillar(spine, legs))

    @given(count=st.integers(1, 6), size=st.integers(2, 6), chain=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_cluster_of_cliques(self, count, size, chain):
        assert_same_graph(cluster_of_cliques(count, size, chain),
                          nx_cluster_of_cliques(count, size, chain))

    @given(side=st.integers(2, 8), bar=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_dumbbell(self, side, bar):
        assert_same_graph(dumbbell(side, bar), nx_dumbbell(side, bar))

    @given(n=st.integers(2, 120), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lopsided(self, n, data):
        hubs = data.draw(st.one_of(st.none(), st.integers(1, n - 1)))
        assert_same_graph(lopsided(n, hubs), nx_lopsided(n, hubs))


class TestDerivedGraphs:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_adversarial_ids_match_networkx_bfs(self, family):
        for n in (5, 13, 30, 64, 200):
            for seed in range(3):
                source = make(family, n, seed=seed)
                want = nx_adversarial_uids(to_nx(
                    NX_FAMILIES.get(family, FAMILIES[family])(n, seed=seed)))
                assert list(adversarial_path_ids(source).csr.uids) == want

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_power_graph_matches_networkx(self, family):
        for n in (13, 40):
            graph = DistributedGraph(make(family, n, seed=2), uid_seed=3)
            for r in (1, 2, 3):
                power = graph.power_graph(r)
                want = DistributedGraph(nx_power_graph(graph, r),
                                        uids=list(graph.csr.uids))
                assert power.csr == want.csr
                assert list(power.edges()) == list(want.edges())
