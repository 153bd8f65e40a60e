"""The theorem pipelines: deterministic, 3.1, 3.5, 3.6, 3.7, 4.2."""

import math

import networkx as nx
import pytest

from repro.core.decomposition import (
    deterministic_decomposition,
    gather_bits,
    kwise_decomposition,
    measure,
    shared_bits_needed,
    shared_randomness_decomposition,
    shattering_decomposition,
    sparse_bits_decomposition,
    sparse_bits_strong_decomposition,
    target_K,
    theoretical_failure_bound,
)
from repro.errors import ConfigurationError
from repro.graphs import assign, make
from repro.randomness import IndependentSource, SharedRandomness, SparseRandomness

from helpers import family_graphs, source_ledger


def _logn(n):
    return max(1, math.ceil(math.log2(max(2, n))))


class TestDeterministic:
    def test_valid_on_all_families(self):
        for name, g in family_graphs(48, seed=3):
            dec, report = deterministic_decomposition(g)
            assert dec.violations(g) == [], name
            logn = _logn(g.n)
            assert dec.num_colors() <= logn + 1, name
            assert dec.max_strong_diameter(g) <= 2 * logn, name

    def test_fully_deterministic(self, gnp60):
        d1, _ = deterministic_decomposition(gnp60)
        d2, _ = deterministic_decomposition(gnp60)
        assert d1.cluster_of == d2.cluster_of

    def test_uses_no_randomness(self, gnp60):
        _d, report = deterministic_decomposition(gnp60)
        assert report.randomness_bits == 0

    def test_single_node(self):
        g = assign(make("path", 1), "sequential")
        dec, _ = deterministic_decomposition(g)
        assert dec.is_valid(g)
        assert dec.num_colors() == 1


class TestSparseBits31:
    def test_valid_decomposition(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        dec, report, extra = sparse_bits_decomposition(
            grid36, src, spacing=6, strict=False)
        assert dec is not None
        assert dec.violations(grid36) == []

    def test_only_holder_bits_consumed(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        sparse_bits_decomposition(grid36, src, spacing=6, strict=False)
        # Every consumed bit came from a holder (the source enforces it;
        # this asserts the ledger agrees).
        assert set(src.nodes_touched()) <= src.holders

    def test_gathering_pools_and_isolation(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        gathered = gather_bits(grid36, src, bits_needed=4, spacing=6)
        members = gathered.cluster_members()
        assert set(v for m in members.values() for v in m) == set(grid36.nodes())
        for center, pool in gathered.pools.items():
            if center not in gathered.isolated:
                assert pool, f"non-isolated cluster {center} got no bits"

    def test_whole_graph_spacing_gives_isolated_cluster(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        gathered = gather_bits(grid36, src, bits_needed=4, spacing=100)
        assert len(gathered.cluster_members()) == 1
        assert len(gathered.isolated) == 1

    @pytest.mark.parametrize("family, n, h, spacing", [
        ("grid", 36, 1, 6),
        ("gnp-sparse", 90, 1, 4),
        ("tree", 70, 2, 5),
        ("path+cycle", 45, 1, 4),  # the 5-cycle is an isolated cluster
        ("cycle", 40, 1, 100),  # one isolated cluster, no bits read
    ])
    def test_pools_read_like_per_holder_bits(self, family, n, h, spacing):
        """One bulk read of all holders' bits gives the pools and the
        ledger (order included) of one ``holder_bit`` call per holder."""
        graph = assign(nx.disjoint_union(nx.path_graph(n - 5),
                                         nx.cycle_graph(5))
                       if family == "path+cycle" else make(family, n, seed=1),
                       "random", seed=1)
        bulk = SparseRandomness.for_graph(graph, h=h, seed=2)
        gathered = gather_bits(graph, bulk, bits_needed=4, spacing=spacing)
        scalar = SparseRandomness.for_graph(graph, h=h, seed=2)
        expected = {}
        for center, cluster in gathered.cluster_members().items():
            holders = [] if center in gathered.isolated \
                else sorted(cluster & scalar.holders, key=graph.uid)
            expected[center] = [scalar.holder_bit(s) for s in holders]
        assert list(gathered.pools.items()) == list(expected.items())
        assert list(source_ledger(bulk).items()) == \
            list(source_ledger(scalar).items())
        assert bulk.bits_consumed == scalar.bits_consumed == sum(
            map(len, expected.values()))

    def test_isolated_only_graph_needs_no_randomness(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        dec, _rep, extra = sparse_bits_decomposition(
            grid36, src, spacing=100, strict=True)
        assert dec is not None and dec.is_valid(grid36)
        assert extra["pool_bits_used"] == 0

    def test_gather_validates(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=2)
        with pytest.raises(ConfigurationError):
            gather_bits(grid36, src, bits_needed=0)
        with pytest.raises(ConfigurationError):
            gather_bits(grid36, src, bits_needed=4, spacing=1)


class TestKWise35:
    def test_k1_always_fails(self, cycle12):
        dec, _r, _e = kwise_decomposition(cycle12, k=1, seed=3, strict=True)
        assert dec is None

    def test_large_k_succeeds(self, cycle12):
        dec, _r, extra = kwise_decomposition(cycle12, k=16, seed=3,
                                             strict=True)
        assert dec is not None
        assert dec.violations(cycle12) == []
        assert extra["seed_bits"] == 16 * extra["field_degree"]

    def test_seed_bits_are_polylog(self):
        g = assign(make("gnp-sparse", 100, seed=1), "random", seed=1)
        _d, _r, extra = kwise_decomposition(g, seed=2, strict=False)
        # k*m = O(log^3 n) fully independent bits behind poly(n) k-wise.
        assert extra["seed_bits"] <= 64 * _logn(g.n) ** 3


class TestSharedCongest36:
    def test_valid_with_congestion_one(self, gnp60):
        dec, report, extra = shared_randomness_decomposition(
            gnp60, seed=4, strict=False)
        assert dec is not None
        assert dec.violations(gnp60) == []
        assert dec.congestion() == 1
        assert 0 < extra["rounds_measured"] <= report.rounds

    def test_diameter_and_colors_bounds(self, gnp60):
        dec, _r, _e = shared_randomness_decomposition(
            gnp60, seed=4, strict=False)
        logn = _logn(gnp60.n)
        assert dec.num_colors() <= 4 * logn
        assert dec.max_strong_diameter(gnp60) <= 4 * logn * logn

    def test_no_private_randomness(self, gnp60):
        shared = SharedRandomness(shared_bits_needed(gnp60.n), seed=9)
        dec, _r, extra = shared_randomness_decomposition(
            gnp60, shared=shared, strict=False)
        # Every bit read is a read of the single shared string.
        assert set(shared.nodes_touched()) == {"__shared__"}

    def test_short_shared_string_rejected(self, gnp60):
        with pytest.raises(ConfigurationError):
            shared_randomness_decomposition(
                gnp60, shared=SharedRandomness(16, seed=1))

    def test_deterministic_given_seed(self, cycle12):
        d1, _r1, _e1 = shared_randomness_decomposition(
            cycle12, seed=5, strict=False)
        d2, _r2, _e2 = shared_randomness_decomposition(
            cycle12, seed=5, strict=False)
        assert d1.cluster_of == d2.cluster_of

    def test_trees_span_clusters(self, gnp60):
        import networkx as nx
        dec, _r, _e = shared_randomness_decomposition(
            gnp60, seed=4, strict=False)
        for cid, members in dec.clusters().items():
            edges = dec.trees.get(cid, [])
            if len(members) <= 1:
                continue
            t = nx.Graph(edges)
            assert set(t.nodes()) >= members


class TestSparseStrong37:
    def test_valid_strong_diameter(self, grid36):
        src = SparseRandomness.for_graph(grid36, h=1, seed=6)
        dec, _r, extra = sparse_bits_strong_decomposition(
            grid36, src, spacing=6, strict=False)
        assert dec is not None
        assert dec.violations(grid36) == []
        assert dec.congestion() == 1

    def test_diameter_h_free(self):
        g = assign(make("grid", 144, seed=2), "random", seed=2)
        logn = _logn(g.n)
        diams = []
        for h in (1, 3):
            src = SparseRandomness.for_graph(g, h=h, seed=7)
            dec, _r, _e = sparse_bits_strong_decomposition(
                g, src, spacing=4 * h + 4, strict=False)
            diams.append(dec.max_strong_diameter(g))
        assert max(diams) <= 4 * logn * logn


class TestShattering42:
    def test_always_produces_valid_decomposition(self):
        for t in range(4):
            g = assign(make("grid", 100, seed=t), "random", seed=t)
            dec, _r, extra = shattering_decomposition(
                g, IndependentSource(seed=50 + t), en_phases=3, cap=6)
            assert dec is not None
            assert dec.violations(g) == [], extra

    def test_no_leftover_skips_finish(self, gnp60):
        dec, _r, extra = shattering_decomposition(
            gnp60, IndependentSource(seed=8))
        assert extra["leftover"] == 0
        assert extra["det_colors"] == 0
        assert dec.is_valid(gnp60)

    def test_separated_set_small(self):
        sizes = []
        for t in range(6):
            g = assign(make("grid", 100, seed=t), "random", seed=100 + t)
            _d, _r, extra = shattering_decomposition(
                g, IndependentSource(seed=200 + t), en_phases=2, cap=5)
            sizes.append(extra["separated_set_size"])
        # The shattering bound: the separated core is tiny even when the
        # leftover set is not.
        assert max(sizes) <= 4

    def test_failure_bound_helpers(self):
        assert theoretical_failure_bound(100, 2) == pytest.approx(1e-4)
        assert theoretical_failure_bound(1, 5) == 0.0
        assert target_K(16) >= 1
        assert target_K(2 ** 10, epsilon=0.25) >= target_K(2 ** 4, epsilon=0.25)


class TestQualityMeasure:
    def test_measure_roundtrip(self, gnp60, source):
        from repro.core.decomposition import elkin_neiman
        dec, _r, _e = elkin_neiman(gnp60, source)
        q = measure(gnp60, dec)
        assert q.valid
        assert q.colors == dec.num_colors()
        assert q.clusters == len(dec.clusters())
        assert set(q.row()) >= {"colors", "congestion", "valid"}

    def test_measure_none(self, gnp60):
        assert measure(gnp60, None) is None
