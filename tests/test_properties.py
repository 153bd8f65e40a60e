"""Property-based invariants across randomly generated inputs.

These tests complement the per-module suites: hypothesis drives the
graph family, size, seed, and algorithm parameters, and the assertions
are the *universal* invariants — the statements that must hold for every
input, not just the fixture graphs.
"""

import math

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import coloring_via_decomposition, is_proper_coloring
from repro.core.decomposition import (
    deterministic_decomposition,
    elkin_neiman,
    measure,
)
from repro.core.mis import is_valid_mis, luby_mis, mis_via_decomposition
from repro.core.ruling_sets import greedy_ruling_set, verify_ruling_set, voronoi_clusters
from repro.graphs import FAMILIES, assign, make
from repro.randomness import IndependentSource
from repro.sim.messages import message_bits

from helpers import nx_copy

graph_family = st.sampled_from(sorted(FAMILIES))
graph_size = st.integers(8, 60)
seeds = st.integers(0, 10 ** 6)


def build(family, n, seed):
    return assign(make(family, n, seed=seed), "random", seed=seed)


class TestDecompositionInvariants:
    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=20)
    def test_en_always_valid_partition(self, family, n, seed):
        g = build(family, n, seed)
        dec, _r, _e = elkin_neiman(g, IndependentSource(seed=seed),
                                   finish="singletons")
        assert set(dec.cluster_of) == set(g.nodes())
        assert dec.violations(g) == []

    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=20)
    def test_deterministic_bounds_always_hold(self, family, n, seed):
        g = build(family, n, seed)
        dec, _rep = deterministic_decomposition(g)
        logn = max(1, math.ceil(math.log2(max(2, g.n))))
        assert dec.num_colors() <= logn + 1
        assert dec.max_strong_diameter(g) <= 2 * logn
        assert dec.violations(g) == []

    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=15)
    def test_clusters_induce_connected_subgraphs(self, family, n, seed):
        g = build(family, n, seed)
        dec, _r, _e = elkin_neiman(g, IndependentSource(seed=seed),
                                   finish="singletons")
        for members in dec.clusters().values():
            assert nx.is_connected(nx_copy(g).subgraph(members))

    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=15)
    def test_measure_is_consistent_with_validity(self, family, n, seed):
        g = build(family, n, seed)
        dec, _rep = deterministic_decomposition(g)
        q = measure(g, dec)
        assert q.valid
        assert q.max_weak_diameter <= q.max_strong_diameter
        assert q.clusters >= q.colors


class TestConsumerInvariants:
    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=15)
    def test_mis_via_any_decomposition_is_valid(self, family, n, seed):
        g = build(family, n, seed)
        dec, _rep = deterministic_decomposition(g)
        flags, _r = mis_via_decomposition(g, dec)
        assert is_valid_mis(g, flags)

    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=15)
    def test_coloring_via_any_decomposition_is_proper(self, family, n, seed):
        g = build(family, n, seed)
        dec, _rep = deterministic_decomposition(g)
        colors, _r = coloring_via_decomposition(g, dec)
        assert is_proper_coloring(g, colors, g.max_degree() + 1)

    @given(n=st.integers(4, 40), seed=seeds)
    @settings(max_examples=10)
    def test_luby_valid_on_random_gnp(self, n, seed):
        g = build("gnp-dense", n, seed)
        result = luby_mis(g, IndependentSource(seed=seed + 1))
        assert is_valid_mis(g, result.outputs)


class TestRulingSetInvariants:
    @given(family=graph_family, n=graph_size, seed=seeds,
           alpha=st.integers(1, 8))
    @settings(max_examples=20)
    def test_greedy_always_alpha_alpha_minus_one(self, family, n, seed, alpha):
        g = build(family, n, seed)
        selected, _rep = greedy_ruling_set(g, alpha=alpha)
        assert verify_ruling_set(g, selected, alpha, max(0, alpha - 1)) == []

    @given(family=graph_family, n=graph_size, seed=seeds)
    @settings(max_examples=15)
    def test_voronoi_respects_distances(self, family, n, seed):
        g = build(family, n, seed)
        centers, _ = greedy_ruling_set(g, alpha=4)
        assignment = voronoi_clusters(g, centers)
        for v, c in assignment.items():
            best = min(g.distance(v, x) for x in centers)
            assert g.distance(v, c) == best


class TestMessageAccounting:
    @given(value=st.integers(-(2 ** 40), 2 ** 40))
    def test_int_size_monotone_in_magnitude(self, value):
        assert message_bits(value) >= message_bits(0) - 1
        assert message_bits(value * 2) >= message_bits(value) - 1

    @given(items=st.lists(st.integers(0, 255), max_size=12))
    def test_container_at_least_sum_of_parts(self, items):
        total = message_bits(tuple(items))
        assert total >= sum(message_bits(x) for x in items)

    @given(text=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=40))
    def test_string_size_linear(self, text):
        assert message_bits(text) == 8 * len(text) + 2


class TestSeedFunctionality:
    @given(seed=seeds, n=st.integers(6, 30))
    @settings(max_examples=10)
    def test_full_pipeline_is_seed_deterministic(self, seed, n):
        def run():
            g = build("gnp-sparse", n, seed)
            dec, _r, _e = elkin_neiman(g, IndependentSource(seed=seed),
                                       finish="singletons")
            return dec.cluster_of

        assert run() == run()
