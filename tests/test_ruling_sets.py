"""Ruling sets: greedy construction, verification, Voronoi clustering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ruling_sets import (
    cluster_adjacency,
    greedy_ruling_set,
    verify_ruling_set,
    voronoi_clusters,
)
from repro.errors import ConfigurationError
from repro.graphs import assign, make

from helpers import family_graphs, nx_copy


class TestGreedyRulingSet:
    @given(alpha=st.integers(1, 6), seed=st.integers(0, 4))
    def test_invariants_on_random_graphs(self, alpha, seed):
        g = assign(make("gnp-sparse", 40, seed=seed), "random", seed=seed)
        selected, _report = greedy_ruling_set(g, alpha=alpha)
        problems = verify_ruling_set(g, selected, alpha=alpha, beta=alpha - 1)
        assert problems == [], problems

    def test_all_families(self):
        for name, g in family_graphs(40):
            selected, _ = greedy_ruling_set(g, alpha=3)
            assert verify_ruling_set(g, selected, 3, 2) == [], name

    def test_subset_restriction(self, grid36):
        subset = [v for v in grid36.nodes() if v % 3 == 0]
        selected, _ = greedy_ruling_set(grid36, alpha=3, subset=subset)
        assert selected <= set(subset)
        assert verify_ruling_set(grid36, selected, 3, 2, subset=subset) == []

    def test_alpha_one_selects_everything(self, path9):
        selected, _ = greedy_ruling_set(path9, alpha=1)
        assert selected == set(path9.nodes())

    def test_uid_order_is_valid(self, gnp60):
        by_uid, _ = greedy_ruling_set(gnp60, alpha=3)
        assert verify_ruling_set(gnp60, by_uid, 3, 2) == []
        # The scan starts at the smallest UID, which is always selected.
        assert min(gnp60.nodes(), key=gnp60.uid) in by_uid

    def test_deterministic(self, gnp60):
        s1, _ = greedy_ruling_set(gnp60, alpha=4)
        s2, _ = greedy_ruling_set(gnp60, alpha=4)
        assert s1 == s2

    def test_round_accounting(self, gnp60):
        _s, report = greedy_ruling_set(gnp60, alpha=4)
        assert report.accounted
        assert report.rounds == 4 * 6  # alpha * ceil(log2 60)

    def test_validates_alpha(self, path9):
        with pytest.raises(ConfigurationError):
            greedy_ruling_set(path9, alpha=0)


class TestVerify:
    def test_detects_close_pair(self, path9):
        problems = verify_ruling_set(path9, {0, 1}, alpha=3, beta=8)
        assert any("distance" in p for p in problems)

    def test_detects_uncovered(self, path9):
        problems = verify_ruling_set(path9, {0}, alpha=2, beta=3)
        assert any("beyond distance" in p for p in problems)

    def test_detects_stray_selection(self, path9):
        problems = verify_ruling_set(path9, {0}, alpha=2, beta=9,
                                     subset=[1, 2, 3])
        assert any("outside U" in p for p in problems)


class TestVoronoi:
    def test_assignment_is_nearest_center(self, grid36):
        centers, _ = greedy_ruling_set(grid36, alpha=4)
        assignment = voronoi_clusters(grid36, centers)
        for v, c in assignment.items():
            dv = grid36.distance(v, c)
            assert all(dv <= grid36.distance(v, other)
                       for other in centers)

    def test_assignment_covers_all_nodes(self, gnp60):
        centers, _ = greedy_ruling_set(gnp60, alpha=3)
        assignment = voronoi_clusters(gnp60, centers)
        assert set(assignment) == set(gnp60.nodes())

    def test_clusters_are_connected(self, gnp60):
        centers, _ = greedy_ruling_set(gnp60, alpha=3)
        assignment = voronoi_clusters(gnp60, centers)
        import networkx as nx
        for c in centers:
            members = [v for v, cc in assignment.items() if cc == c]
            assert nx.is_connected(nx_copy(gnp60).subgraph(members))

    def test_restrict_to(self, path9):
        allowed = {0, 1, 2, 3}
        assignment = voronoi_clusters(path9, [0], restrict_to=allowed)
        assert set(assignment) == allowed

    def test_restricted_center_must_be_allowed(self, path9):
        with pytest.raises(ConfigurationError):
            voronoi_clusters(path9, [8], restrict_to={0, 1})

    def test_requires_centers(self, path9):
        with pytest.raises(ConfigurationError):
            voronoi_clusters(path9, [])

    def test_cluster_adjacency(self, path9):
        assignment = voronoi_clusters(path9, [0, 8])
        offsets, indices, centers = cluster_adjacency(path9, assignment)
        assert centers.tolist() == [0, 8]
        assert offsets.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0]

    def test_cluster_adjacency_isolated(self, path9):
        assignment = voronoi_clusters(path9, [4])
        offsets, indices, centers = cluster_adjacency(path9, assignment)
        assert centers.tolist() == [4]
        assert offsets.tolist() == [0, 0] and indices.size == 0
