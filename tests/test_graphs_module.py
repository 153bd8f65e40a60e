"""Graph generators and identifier schemes."""

import math

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import to_nx
from repro.errors import ConfigurationError
from repro.graphs import (
    FAMILIES,
    SCHEMES,
    assign,
    caterpillar,
    cluster_of_cliques,
    complete_tree,
    dumbbell,
    expander,
    gnp,
    grid,
    make,
    path,
    random_regular,
    random_tree,
)


class TestGenerators:
    @given(n=st.integers(2, 60))
    def test_path_and_cycle_shapes(self, n):
        p = to_nx(path(n))
        assert p.number_of_nodes() == n
        assert p.number_of_edges() == n - 1
        if n >= 3:
            from repro.graphs import cycle
            c = to_nx(cycle(n))
            assert c.number_of_edges() == n

    def test_grid_shape(self):
        g = to_nx(grid(4, 5))
        assert g.number_of_nodes() == 20
        assert nx.is_connected(g)

    @given(n=st.integers(4, 50), seed=st.integers(0, 5))
    def test_gnp_connected(self, n, seed):
        g = to_nx(gnp(n, 1.5 / n, seed=seed))
        assert nx.is_connected(g)
        assert g.number_of_nodes() == n

    @given(seed=st.integers(0, 5))
    def test_random_regular_degrees(self, seed):
        g = to_nx(random_regular(20, 3, seed=seed))
        assert all(d == 3 for _v, d in g.degree())

    def test_random_regular_validates_parity(self):
        with pytest.raises(ConfigurationError):
            random_regular(5, 3)

    @given(n=st.integers(1, 40), seed=st.integers(0, 5))
    def test_random_tree_is_tree(self, n, seed):
        t = to_nx(random_tree(n, seed=seed))
        assert t.number_of_nodes() == n
        assert nx.is_tree(t) or n == 1

    def test_complete_tree(self):
        t = to_nx(complete_tree(2, 3))
        assert nx.is_tree(t)
        assert t.number_of_nodes() == 15

    def test_caterpillar(self):
        c = to_nx(caterpillar(spine=4, legs=2))
        assert c.number_of_nodes() == 4 + 8
        assert nx.is_tree(c)

    def test_cluster_of_cliques(self):
        g = to_nx(cluster_of_cliques(3, 4))
        assert g.number_of_nodes() == 12
        assert nx.is_connected(g)
        # Each clique is complete.
        assert g.number_of_edges() == 3 * 6 + 2

    def test_cluster_of_cliques_star(self):
        g = to_nx(cluster_of_cliques(4, 3, chain=False))
        assert nx.is_connected(g)

    def test_dumbbell(self):
        g = to_nx(dumbbell(side=4, bar=3))
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 11
        assert nx.diameter(g) >= 4

    def test_expander_shape(self):
        g = expander(40, seed=1)
        assert nx.is_connected(g)
        assert g.number_of_nodes() >= 40
        assert max(d for _, d in g.degree()) <= 8  # Margulis degree bound
        assert not any(u == v for u, v in g.edges())  # self-loops dropped
        # Expanders have logarithmic diameter, far below path-like families.
        assert nx.diameter(g) <= 2 * math.ceil(math.log2(g.number_of_nodes()))

    def test_expander_deterministic(self):
        assert nx.utils.graphs_equal(expander(30), expander(30))

    def test_new_named_families(self):
        for name in ("expander", "regular-4", "caterpillar"):
            g = to_nx(make(name, 40, seed=3))
            assert nx.is_connected(g), name
        assert all(d == 4 for _, d in to_nx(make("regular-4", 40, seed=3)).degree())
        cat = to_nx(make("caterpillar", 40, seed=0))
        # A caterpillar: removing leaves yields a path (degree <= 2).
        spine = cat.subgraph(v for v, d in cat.degree() if d > 1)
        assert max(d for _, d in spine.degree()) <= 2 + 1  # spine + one leg edge

    def test_named_families_all_connected(self):
        for name in FAMILIES:
            g = to_nx(make(name, 40, seed=2))
            assert nx.is_connected(g), name
            assert g.number_of_nodes() >= 10, name

    def test_make_unknown_family(self):
        with pytest.raises(ConfigurationError):
            make("hypercube", 8)

    def test_generator_validation(self):
        with pytest.raises(ConfigurationError):
            path(0)
        with pytest.raises(ConfigurationError):
            grid(0, 3)
        with pytest.raises(ConfigurationError):
            gnp(10, 1.5)
        with pytest.raises(ConfigurationError):
            caterpillar(0, 1)
        with pytest.raises(ConfigurationError):
            dumbbell(0, 1)
        with pytest.raises(ConfigurationError):
            cluster_of_cliques(0, 3)


class TestIdSchemes:
    def test_all_schemes_give_unique_ids(self):
        raw = make("gnp-sparse", 30, seed=1)
        for scheme in SCHEMES:
            g = assign(raw, scheme, seed=3)
            uids = [g.uid(v) for v in g.nodes()]
            assert len(set(uids)) == g.n, scheme

    def test_sequential_ids(self):
        g = assign(make("path", 5), "sequential")
        assert sorted(g.uid(v) for v in g.nodes()) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("family,n", [("path", 8), ("path", 12),
                                          ("path", 100), ("cycle", 12)])
    def test_adversarial_ids_follow_bfs(self, family, n):
        g = assign(make(family, n), "adversarial")
        by_uid = sorted(g.nodes(), key=g.uid)
        assert [g.uid(v) for v in by_uid] == list(range(1, n + 1))
        # UID order is a BFS order from node 0: distances never decrease.
        dist = g.bfs_distances(0).tolist()
        assert by_uid[0] == 0
        assert all(dist[a] <= dist[b] for a, b in zip(by_uid, by_uid[1:]))
        if family == "path":  # BFS on a path is the path order itself
            assert [g.uid(v) for v in g.nodes()] == list(range(1, n + 1))

    def test_spread_ids_have_uniform_bit_length(self):
        g = assign(make("path", 32), "spread", seed=4)
        lengths = {g.uid(v).bit_length() for v in g.nodes()}
        assert max(lengths) - min(lengths) <= 1

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            assign(make("path", 4), "quantum")

    def test_random_ids_deterministic_per_seed(self):
        raw = make("path", 10)
        a = assign(raw, "random", seed=5)
        b = assign(raw, "random", seed=5)
        assert [a.uid(v) for v in a.nodes()] == [b.uid(v) for v in b.nodes()]
