"""Analysis layer: tables, statistics, experiment smoke tests, and the
paper's claims asserted on every quick table."""

import copy
import re
import runpy
from pathlib import Path

import pytest

from repro.analysis import (
    EXPERIMENTS,
    Table,
    geometric_mean,
    log2_or_floor,
    success_rate,
    wilson_interval,
)
from repro.analysis.ablations import ABLATIONS
from repro.analysis.cli import main
from repro.analysis.experiments import run_experiment_grid
from repro.errors import ConfigurationError
from repro.scenarios import ExperimentGrid

ROOT = Path(__file__).resolve().parents[1]


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

    # TestPaperClaims below checks every driver at seed 1; here the two
    # cheapest also run at another seed, to make sure the tables stay
    # well-shaped off the pinned profile.
    def test_e09_smoke(self):
        table = EXPERIMENTS["e09"](quick=True, seed=2)
        assert table.rows
        assert "Luby rounds" in table.columns

    def test_e06_smoke(self):
        table = EXPERIMENTS["e06"](quick=True, seed=2)
        assert table.rows[0]["shattering success"] == 1.0

    def test_e03_builds_each_instance_once(self, monkeypatch):
        # The four regimes split the same instance per trial seed.
        import functools

        from repro.analysis import experiments
        from repro.core.splitting import random_instance

        built = []

        def counted(*args):
            built.append(args)
            return random_instance(*args)

        monkeypatch.setattr(experiments, "_e03_instance",
                            functools.lru_cache(maxsize=100)(counted))
        table = EXPERIMENTS["e03"](quick=True, seed=3)
        assert len(table.rows) == 4
        assert len(built) == len(set(built)) == 20


class TestFrontEnd:
    """``python -m repro.analysis`` is the one table front end, and
    ``run_experiment_grid`` the one dispatch behind it."""

    @staticmethod
    def _recording(monkeypatch, registry, names):
        calls = []
        for name in names:
            def driver(name=name, **kwargs):
                calls.append((name, kwargs))
                return Table(title=f"fake {name}", rows=[])
            monkeypatch.setitem(registry, name, driver)
        return calls

    def test_e07_prints_timing_line_then_table(self, capsys):
        assert main(["e07"]) == 0
        out = capsys.readouterr().out
        timing, rest = out.split("\n", 1)
        assert re.fullmatch(r"### done e07 in [0-9]+\.[0-9]s", timing)
        table = EXPERIMENTS["e07"](quick=True, seed=1).render()
        assert rest == table + "\n\n"
        check = runpy.run_path(str(ROOT / "scripts_check_quick_tables.py"))
        assert check["comparable"](out) == table.split("\n")

    def test_unknown_names_exit_2_and_are_named(self, capsys):
        assert main(["e07", "e99", "zz"]) == 2
        captured = capsys.readouterr()
        assert "e99" in captured.err and "zz" in captured.err
        assert captured.out == ""  # checked before any driver runs

    def test_ablations_run_in_the_order_given(self, monkeypatch, capsys):
        calls = self._recording(monkeypatch, ABLATIONS, ("a1", "a2"))
        assert main(["a2", "e07", "a1", "--full", "--seed", "3"]) == 0
        assert calls == [("a2", dict(quick=False, seed=3)),
                         ("a1", dict(quick=False, seed=3))]
        done = re.findall(r"^### done (\w+) in ", capsys.readouterr().out,
                          re.M)
        assert done == ["a2", "e07", "a1"]

    def test_grid_checks_names_at_once_and_runs_as_iterated(
            self, monkeypatch):
        calls = self._recording(monkeypatch, EXPERIMENTS, ("e06", "e07"))
        grid = ExperimentGrid(names=("e07", "e06"), seed=2)
        with pytest.raises(ConfigurationError, match="e99"):
            run_experiment_grid(ExperimentGrid(names=("e06", "e99")))
        tables = run_experiment_grid(grid, workers=1)
        assert calls == []
        assert next(tables)[0] == "e07" and [c[0] for c in calls] == ["e07"]
        assert [name for name, _ in tables] == ["e06"]
        assert calls[1] == ("e06", dict(quick=True, seed=2, workers=1,
                                        store=None, shard=None,
                                        progress=None))

    def test_shard_run_skips_drivers_without_a_sweep(self, monkeypatch,
                                                     tmp_path, capsys):
        calls = self._recording(monkeypatch, EXPERIMENTS, ("e06", "e07"))
        argv = ["e07", "e06", "--store", str(tmp_path / "s"),
                "--shard-index", "1", "--shard-count", "2"]
        assert main(argv) == 0
        assert [name for name, _ in calls] == ["e06"]
        assert calls[0][1]["shard"] == (1, 2)
        out = capsys.readouterr().out
        assert "### shard 1/2 of e06 populated in " in out
        assert "e07" not in out and "### done" not in out


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

        rendered = ABLATIONS[name](quick=True, seed=0).render()
        digest = hashlib.blake2b(rendered.encode(), digest_size=16)
        assert digest.hexdigest() == self.PINNED[name], rendered


# --- The paper's claims, one check per quick table --------------------
#
# Each check is a plain function over a driver's Table and asserts the
# theorem's shape on it. TestPaperClaims runs them on the quick profile
# at seed 1, the tables EXPERIMENTS.md pins.


def check_e01(table):
    """E1, Theorem 3.1: decomposition from one bit per h hops."""
    # Theorem shape: every h succeeds and colors stay logarithmic.
    for row in table.rows:
        assert row["success"] == 1.0


def check_e02(table):
    """E2, Theorem 3.5: k-wise independence suffices."""
    by_k = {row["k"]: row["success"] for row in table.rows}
    # k = 1 (fully correlated radii) must fail; large k must match the
    # fully independent reference.
    assert by_k[1] == 0.0
    assert by_k[max(by_k)] >= 0.9


def check_e03(table):
    """E3, Lemma 3.4: zero-round splitting."""
    for row in table.rows:
        assert row["rounds"] == 0
        assert row["success"] >= 0.9, row
    biased = [r for r in table.rows if r["regime"] == "epsilon-biased"][0]
    # Lemma 3.4's headline: O(log n) shared bits.
    assert isinstance(biased["seed bits"], int)
    assert biased["seed bits"] <= 64


def check_e04(table):
    """E4, Theorem 3.6: shared-randomness CONGEST decomposition."""
    for row in table.rows:
        assert row["success"] == 1.0
        assert row["congestion"] == 1
        assert row["colors(max)"] <= row["O(log n)"]
        assert row["strong diam(max)"] <= row["O(log^2 n)"]


def check_e05(table):
    """E5, Theorem 3.7: h-free strong-diameter decomposition."""
    for row in table.rows:
        assert row["Thm3.7 strong diam"] <= row["O(log^2 n)"]


def check_e06(table):
    """E6, Theorem 4.2: shattering boosts success probability."""
    row = table.rows[0]
    # The whole point: plain EN fails here, the shattered finish does not.
    assert row["shattering success"] == 1.0
    assert row["max separated K"] <= 3


def check_e07(table):
    """E7, Lemma 4.1: derandomization by seed enumeration."""
    for row in table.rows:
        assert row["derandomized"] is True
        assert row["good seeds"] >= 1


def check_e08(table):
    """E8, Theorems 4.3/4.6: error vs rounds by lying about n."""
    succ = table.column("success")
    rounds = table.column("T(N) rounds")
    # Rounds grow with the claimed N; success is (weakly) increasing
    # from the first to the last point, and the gap is substantial.
    assert rounds == sorted(rounds)
    assert succ[-1] >= succ[0] + 0.3


def check_e09(table):
    """E9: MIS and coloring, randomized vs via-decomposition."""
    for row in table.rows:
        assert row["Luby valid"] and row["det MIS valid"]
        assert row["trial valid"] and row["det valid"]


def check_e10(table):
    """E10: sinkless orientation fix-up convergence."""
    for row in table.rows:
        assert row["all valid"] is True
    rounds = table.column("avg fix-up rounds")
    # Slow growth: the largest instance needs at most ~4x the smallest.
    assert rounds[-1] <= 6 * max(1.0, rounds[0])


def check_e11(table):
    """E11: uniform algorithms via guess-and-double."""
    for row in table.rows:
        assert row["final guess N"] >= row["n"]
        assert row["overhead"] >= 1.0


def check_a1(table):
    """A1: the Elkin–Neiman gap rule (paper vs relaxed)."""
    by_rule = {row["rule"]: row for row in table.rows}
    paper = by_rule["paper (gap > 1)"]
    ablated = by_rule["ablated (gap > 0)"]
    # The paper rule must produce valid decompositions; the relaxed rule
    # must be visibly worse (adjacent same-phase clusters).
    assert paper["valid rate"] >= 0.9
    assert ablated["valid rate"] <= paper["valid rate"] - 0.5


def check_a2(table):
    """A2: phase budget vs success probability."""
    succ = table.column("success")
    # Success climbs steeply with the budget (exponential failure decay).
    assert succ[-1] >= 0.8
    assert succ[-1] >= succ[0] + 0.5


def check_a3(table):
    """A3: Lemma 3.2 spacing vs gathered pool budget."""
    numeric = [p for p in table.column("min pool bits")
               if isinstance(p, int)]
    # Bigger spacing must trap more holder bits per cluster.
    assert numeric == sorted(numeric)
    exhaustions = table.column("avg exhaustions")
    assert exhaustions[0] > exhaustions[-1]
    assert table.rows[-1]["success"] == 1.0


CLAIMS = {
    "e01": check_e01, "e02": check_e02, "e03": check_e03, "e04": check_e04,
    "e05": check_e05, "e06": check_e06, "e07": check_e07, "e08": check_e08,
    "e09": check_e09, "e10": check_e10, "e11": check_e11,
    "a1": check_a1, "a2": check_a2, "a3": check_a3,
}


@pytest.fixture(scope="module")
def quick_table():
    """``quick_table(name)``: the driver's quick table at seed 1, built
    at most once per module and shared by every test that reads it."""
    drivers = {**EXPERIMENTS, **ABLATIONS}
    tables = {}

    def table(name):
        if name not in tables:
            tables[name] = drivers[name](quick=True, seed=1)
        return tables[name]

    return table


class TestPaperClaims:
    def test_every_driver_has_a_claim(self):
        assert set(CLAIMS) == {*EXPERIMENTS, *ABLATIONS}

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_quick_table_meets_claim(self, name, quick_table):
        CLAIMS[name](quick_table(name))


class TestInjectedViolations:
    """Each claim check must fail once one cell of its real quick table
    moves just past the bound one of its assertions draws."""

    # (driver, row, column, nudged value); every assertion above has at
    # least one entry. Values are relative to the seed-1 quick tables.
    VIOLATIONS = [
        ("e01", 0, "success", 0.95),
        ("e02", 0, "success", 0.1),  # k = 1
        ("e02", -1, "success", 0.85),
        ("e03", 0, "rounds", 1),
        ("e03", 1, "success", 0.85),
        ("e03", 3, "seed bits", "unbounded"),  # epsilon-biased
        ("e03", 3, "seed bits", 65),
        ("e04", 0, "success", 0.95),
        ("e04", 0, "congestion", 2),
        ("e04", 1, "colors(max)", 15),  # O(log n) = 14
        ("e04", 1, "strong diam(max)", 99),  # O(log^2 n) = 98
        ("e05", 0, "Thm3.7 strong diam", 129),  # O(log^2 n) = 128
        ("e06", 0, "shattering success", 0.95),
        ("e06", 0, "max separated K", 4),
        ("e07", 0, "derandomized", False),
        ("e07", 2, "good seeds", 0),
        ("e08", 1, "T(N) rounds", 39),  # row 0 has 40
        ("e08", -1, "success", 0.29),  # row 0 has 0
        ("e09", 0, "Luby valid", False),
        ("e09", 0, "det MIS valid", False),
        ("e09", 1, "trial valid", False),
        ("e09", 1, "det valid", False),
        ("e10", 0, "all valid", False),
        ("e10", -1, "avg fix-up rounds", 10.9),  # 6 * 1.8 = 10.8
        ("e11", 0, "final guess N", 19),  # n = 20
        ("e11", 1, "overhead", 0.99),
        ("a1", 0, "valid rate", 0.89),  # paper rule
        ("a1", 1, "valid rate", 0.51),  # ablated, paper's is 1
        ("a2", -1, "success", 0.79),
        ("a2", 0, "success", 0.51),  # last row has 1
        ("a3", 1, "min pool bits", 0),  # row 0 has 1
        ("a3", 0, "avg exhaustions", 0.0),  # last row has 0
        ("a3", -1, "success", 0.95),
    ]

    def test_every_claim_has_a_violation(self):
        assert {name for name, *_ in self.VIOLATIONS} == set(CLAIMS)

    @pytest.mark.parametrize("name, row, column, value", VIOLATIONS)
    def test_nudged_cell_fails_claim(self, name, row, column, value,
                                     quick_table):
        table = copy.deepcopy(quick_table(name))
        assert table.rows[row][column] != value
        table.rows[row][column] = value
        with pytest.raises(AssertionError):
            CLAIMS[name](table)
