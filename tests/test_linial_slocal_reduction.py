"""Cole–Vishkin reduction and the SLOCAL->LOCAL completeness reduction."""

import pytest

from repro.core.coloring import coloring_via_decomposition, is_proper_coloring
from repro.core.decomposition import deterministic_decomposition, elkin_neiman
from repro.core.linial import log_star, reduce_to_three_colors
from repro.core.mis import is_valid_mis, mis_via_decomposition
from repro.core.slocal_reduction import (
    derandomized_coloring,
    derandomized_mis,
    run_slocal_via_decomposition,
)
from repro.errors import ConfigurationError
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim.slocal import LocalView
from repro.structures import Decomposition


class TestLogStar:
    def test_known_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 0
        assert log_star(4) == 1
        assert log_star(16) == 2
        assert log_star(65536) == 3
        assert log_star(2 ** 64) == 4

    def test_monotone(self):
        values = [log_star(n) for n in (2, 10, 100, 10 ** 6, 2 ** 70)]
        assert values == sorted(values)


class TestColeVishkin:
    @pytest.mark.parametrize("family,n", [
        ("cycle", 20), ("cycle", 101), ("cycle", 512),
        ("path", 2), ("path", 33), ("path", 400),
    ])
    def test_three_coloring(self, family, n):
        g = assign(make(family, n), "random", seed=7)
        result = reduce_to_three_colors(g)
        assert is_proper_coloring(g, result.outputs)
        assert set(result.outputs.values()) <= {0, 1, 2}

    def test_round_count_is_log_star_like(self):
        # Same tiny round count across two orders of magnitude of n.
        rounds = []
        for n in (32, 1024):
            g = assign(make("cycle", n), "random", seed=3)
            rounds.append(reduce_to_three_colors(g).report.rounds)
        assert rounds[0] == rounds[1]
        assert rounds[0] <= 12

    def test_zero_randomness(self):
        g = assign(make("cycle", 64), "random", seed=1)
        result = reduce_to_three_colors(g)
        assert result.report.randomness_bits == 0

    def test_rejects_high_degree(self, dense40):
        with pytest.raises(ConfigurationError):
            reduce_to_three_colors(dense40)

    def test_single_path_edge(self):
        g = assign(make("path", 2), "sequential")
        result = reduce_to_three_colors(g)
        assert result.outputs[0] != result.outputs[1]


class TestSLocalReduction:
    def test_derandomized_mis_everywhere(self):
        for fam in ("cycle", "grid", "gnp-sparse", "tree"):
            g = assign(make(fam, 30, seed=5), "random", seed=5)
            flags, report = derandomized_mis(g)
            assert is_valid_mis(g, flags), fam
            assert report.accounted

    def test_derandomized_coloring_everywhere(self):
        for fam in ("cycle", "grid", "gnp-sparse"):
            g = assign(make(fam, 30, seed=6), "random", seed=6)
            colors, _rep = derandomized_coloring(g)
            assert is_proper_coloring(g, colors, g.max_degree() + 1), fam

    @pytest.mark.parametrize("family", ["cycle", "grid", "gnp-sparse", "tree",
                                        "gnp-dense", "path"])
    def test_entry_points_are_one_sweep(self, family):
        """The reduction at r=1 and the via-decomposition solvers, given
        the same decomposition of G^3, make the same choices."""
        for n in (9, 30, 60):
            for seed in (1, 2, 3):
                g = assign(make(family, n, seed=seed), "random", seed=seed)
                dec = deterministic_decomposition(g.power_graph(3))[0]
                where = (family, n, seed)
                assert derandomized_mis(g)[0] == \
                    mis_via_decomposition(g, dec)[0], where
                assert derandomized_coloring(g)[0] == \
                    coloring_via_decomposition(g, dec)[0], where

    def test_pipeline_is_fully_deterministic(self, gnp60):
        assert derandomized_mis(gnp60)[0] == derandomized_mis(gnp60)[0]

    def test_randomized_decomposition_also_works(self, gnp60):
        """P-RLOCAL side: feed an EN decomposition of the power graph."""
        power = gnp60.power_graph(3)
        dec, _r, _e = elkin_neiman(power, IndependentSource(seed=9),
                                   finish="singletons")

        def decide(view: LocalView) -> bool:
            return not any(view.outputs.get(u) is True
                           for u, d in view.nodes.items() if d == 1)

        result = run_slocal_via_decomposition(
            gnp60, locality=1, decide=decide, decomposition_of_power=dec)
        assert is_valid_mis(gnp60, result.outputs)

    def test_same_color_clusters_are_view_disjoint(self, gnp60):
        """The reduction's parallelism claim, checked explicitly."""
        r = 1
        power = gnp60.power_graph(2 * r + 1)
        dec, _ = deterministic_decomposition(power)
        by_color = {}
        for cid, members in dec.clusters().items():
            by_color.setdefault(dec.color_of[cid], []).append(members)
        for color, clusters in by_color.items():
            for i, a in enumerate(clusters):
                for b in clusters[i + 1:]:
                    for x in a:
                        for y in b:
                            assert gnp60.distance(x, y) > 2 * r + 1

    def test_invalid_decomposition_rejected(self, path9):
        bad = Decomposition(cluster_of={v: 0 for v in path9.nodes()},
                            color_of={})
        with pytest.raises(ConfigurationError):
            run_slocal_via_decomposition(
                path9, locality=1, decide=lambda v: True,
                decomposition_of_power=bad)

    def test_none_record_rejected(self, path9):
        with pytest.raises(ConfigurationError):
            run_slocal_via_decomposition(
                path9, locality=1, decide=lambda v: None)

    def test_negative_locality_rejected(self, path9):
        with pytest.raises(ConfigurationError):
            run_slocal_via_decomposition(
                path9, locality=-1, decide=lambda v: True)

    def test_round_accounting_scales_with_colors(self, gnp60):
        _flags, report = derandomized_mis(gnp60)
        assert report.rounds > 0
        assert any("SLOCAL->LOCAL" in note for note in report.notes)
