"""Analysis layer: tables, statistics, and experiment smoke tests."""

import pytest

from repro.analysis import (
    EXPERIMENTS,
    Table,
    geometric_mean,
    log2_or_floor,
    success_rate,
    wilson_interval,
)


class TestTable:
    def test_render_alignment(self):
        t = Table(title="T", rows=[{"a": 1, "bb": 2.5}, {"a": 30, "bb": True}])
        text = t.render()
        assert "T" in text
        assert "a" in text and "bb" in text
        assert "30" in text and "yes" in text

    def test_column_order_defaults_to_first_row(self):
        t = Table(title="T", rows=[{"z": 1, "a": 2}])
        assert list(t.columns) == ["z", "a"]

    def test_explicit_columns(self):
        t = Table(title="T", rows=[{"a": 1, "b": 2}], columns=["b", "a"])
        header = t.render().splitlines()[2]
        assert header.index("b") < header.index("a")

    def test_notes_rendered(self):
        t = Table(title="T", rows=[{"a": 1}], notes=["check me"])
        assert "note: check me" in t.render()

    def test_column_extraction(self):
        t = Table(title="T", rows=[{"a": 1}, {"a": 2}])
        assert t.column("a") == [1, 2]
        assert t.column("missing") == [None, None]

    def test_float_formatting(self):
        t = Table(title="T", rows=[{"x": 0.123456}])
        assert "0.1235" in t.render()


class TestStats:
    def test_success_rate(self):
        assert success_rate([True, True, False, False]) == 0.5
        assert success_rate([]) == 0.0

    def test_wilson_interval_contains_p(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_wilson_interval_extremes(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.25
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.75 and hi == 1.0

    def test_wilson_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1, 0]) == 0.0

    def test_log2_or_floor(self):
        assert log2_or_floor(0.25) == -2.0
        assert log2_or_floor(0.0) == -60.0
        assert log2_or_floor(0.0, floor=-10) == -10


class TestExperimentRegistry:
    def test_all_eleven_registered(self):
        assert sorted(EXPERIMENTS) == [f"e{i:02d}" for i in range(1, 12)]

    # The heavy experiments have their own benchmarks; here just smoke
    # the two cheapest drivers to make sure the module stays importable
    # and table-shaped.
    def test_e09_smoke(self):
        table = EXPERIMENTS["e09"](quick=True, seed=2)
        assert table.rows
        assert "Luby rounds" in table.columns

    def test_e06_smoke(self):
        table = EXPERIMENTS["e06"](quick=True, seed=2)
        assert table.rows[0]["shattering success"] == 1.0


class TestAblationsPinned:
    """The A1–A3 quick tables at seed 0, pinned byte for byte.

    EXPERIMENTS.md pins only E1–E11; these digests give the ablations the
    same guard, so a refactor of the code they run (the Elkin–Neiman
    phase loop, the Lemma 3.2 gathering) cannot shift them silently.
    """

    PINNED = {
        "a1": "d5107d36c40355b7e3a0b95d97d859c8",
        "a2": "4968dcacec8ac2062afc84b00844f877",
        "a3": "c3d17a823b108863b6c2531c477b5888",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_quick_table_digest(self, name):
        import hashlib

        from repro.analysis.ablations import ABLATIONS

        rendered = ABLATIONS[name](quick=True, seed=0).render()
        digest = hashlib.blake2b(rendered.encode(), digest_size=16)
        assert digest.hexdigest() == self.PINNED[name], rendered
