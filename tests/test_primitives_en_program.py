"""Engine primitives, and Elkin–Neiman's measured rounds and messages."""

import pytest

from repro.core.decomposition import elkin_neiman
from repro.errors import ConfigurationError
from repro.randomness import IndependentSource
from repro.sim import CONGEST
from repro.sim.messages import congest_limit
from repro.sim.primitives import (
    ArrayBFSForest,
    ArrayFloodMin,
    build_bfs_forest,
    convergecast_sum,
    flood_min,
)

from helpers import family_graphs


class TestFloodMin:
    def test_learns_radius_ball_minimum(self, grid36):
        radius = 3
        result = flood_min(grid36, radius, model=CONGEST)
        for v in grid36.nodes():
            expected = min(grid36.uid(u) for u in grid36.ball(v, radius))
            assert result.outputs[v] == expected

    def test_radius_zero_is_self(self, path9):
        result = flood_min(path9, 0)
        assert all(result.outputs[v] == path9.uid(v) for v in path9.nodes())

    def test_takes_exactly_radius_rounds(self, path9):
        result = flood_min(path9, 4)
        assert result.report.rounds == 4

    def test_validates_radius(self):
        with pytest.raises(ConfigurationError):
            ArrayFloodMin(-1)


class TestBFSTree:
    def test_single_root_depths(self, grid36):
        result = build_bfs_forest(grid36, roots=[0])
        for v in grid36.nodes():
            root_uid, parent, depth = result.outputs[v]
            assert root_uid == grid36.uid(0)
            assert depth == grid36.distance(0, v)
            if v != 0:
                assert parent in grid36.neighbors(v)
                assert result.outputs[parent][2] == depth - 1

    def test_multi_root_nearest_or_smaller_uid(self, path9):
        result = build_bfs_forest(path9, roots=[0, 8])
        for v in path9.nodes():
            root_uid, _parent, depth = result.outputs[v]
            assert depth == min(path9.distance(0, v), path9.distance(8, v)) \
                or root_uid == min(path9.uid(0), path9.uid(8))

    def test_parent_pointers_form_forest(self, gnp60):
        result = build_bfs_forest(gnp60, roots=[0, 1])
        # Walking parents must terminate at a root.
        for v in gnp60.nodes():
            seen = set()
            cur = v
            while True:
                assert cur not in seen
                seen.add(cur)
                _root, parent, _depth = result.outputs[cur]
                if parent is None:
                    break
                cur = parent

    def test_validates_depth_bound(self):
        with pytest.raises(ConfigurationError):
            ArrayBFSForest([0], 0)


class TestConvergecast:
    def test_sums_match_cluster_sizes(self, grid36):
        result = build_bfs_forest(grid36, roots=[0, 35])
        totals, rounds = convergecast_sum(
            grid36, result.outputs, value_of=lambda v: 1)
        assert sum(totals.values()) == grid36.n
        assert rounds <= grid36.n

    def test_weighted_sum(self, path9):
        result = build_bfs_forest(path9, roots=[0])
        totals, _rounds = convergecast_sum(
            path9, result.outputs, value_of=lambda v: v)
        assert totals[path9.uid(0)] == sum(range(9))


class TestENEngineProgram:
    """Elkin–Neiman's measured flood against its accounted rounds."""

    def test_valid_on_families(self):
        for name, g in family_graphs(36, seed=9):
            dec, report, extra = elkin_neiman(
                g, IndependentSource(seed=13), finish="singletons")
            assert dec.violations(g) == [], name
            assert extra["rounds_measured"] <= report.rounds, name

    def test_congest_messages_within_limit(self, gnp60):
        _dec, _report, extra = elkin_neiman(
            gnp60, IndependentSource(seed=14), finish="singletons")
        # A message is at most one per directed edge per round ...
        directed_edges = 2 * gnp60.m
        assert 0 < extra["messages"] <= extra["rounds_measured"] * directed_edges
        # ... and carries two (value <= cap, center < n) pairs.
        pair_bits = extra["cap"].bit_length() + gnp60.n.bit_length()
        assert 2 * pair_bits <= congest_limit(gnp60.n)

    def test_measured_rounds_match_structure(self, cycle12):
        phases, cap = 6, 5
        _dec, report, extra = elkin_neiman(
            cycle12, IndependentSource(seed=15), phases=phases, cap=cap,
            finish="singletons")
        assert report.accounted and report.rounds == phases * (cap + 2)
        # Every phase that ran spends its draw and decision rounds.
        assert 2 <= extra["rounds_measured"] <= phases * (cap + 2)

    def test_agrees_with_orchestrated_invariants(self, gnp60):
        """Strict and singleton finishes share one flood and its bounds."""
        phases, cap = 30, 10
        dec_s, _r, extra_s = elkin_neiman(
            gnp60, IndependentSource(seed=16), phases=phases, cap=cap,
            finish="singletons")
        _dec, _r, extra_t = elkin_neiman(
            gnp60, IndependentSource(seed=16), phases=phases, cap=cap,
            finish="strict")
        for key in ("assignment", "unclustered", "rounds_measured", "messages"):
            assert extra_s[key] == extra_t[key], key
        assert dec_s.is_valid(gnp60)
        assert dec_s.num_colors() <= phases + gnp60.n
        assert dec_s.max_strong_diameter(gnp60) <= 2 * cap

    def test_strict_mode(self, cycle12):
        dec, _report, extra = elkin_neiman(
            cycle12, IndependentSource(seed=17), phases=1, cap=1,
            finish="strict")
        # cap=1 makes every shift 1: one flood round tells each node's two
        # neighbors "0", and m1 - m2 = 1 - 0 is no gap, so nobody joins.
        assert extra["rounds_measured"] == 1 + 2
        assert extra["messages"] == 2 * cycle12.n
        assert extra["unclustered"] == set(cycle12.nodes())
        assert dec is None
