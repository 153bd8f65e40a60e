"""The process-local trial-graph memo (``repro.graphs.trial_graph``) and
the import cost of the experiment stack."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.errors import ConfigurationError
from repro.graphs import assign, make, trial_graph
from repro.graphs import ids as ids_module
from repro.scenarios import sweep_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for the test, restored afterwards."""
    fresh = ids_module._GraphMemo()
    monkeypatch.setattr(ids_module, "_TRIAL_GRAPHS", fresh)
    return fresh


def cycle_key(n: int, id_seed: int) -> tuple:
    return ("cycle", n, None, "random", id_seed)


def assert_same_graph(got, want) -> None:
    assert (got.n, got.m) == (want.n, want.m)
    np.testing.assert_array_equal(got.csr.offsets, want.csr.offsets)
    np.testing.assert_array_equal(got.csr.indices, want.csr.indices)
    assert got.csr.uids == want.csr.uids
    assert got.csr.neighbor_lists == want.csr.neighbor_lists


class TestKey:
    def test_equals_assign_of_make(self, memo):
        for family, ids in (("gnp-sparse", "random"), ("path", "spread"),
                            ("regular-3", "adversarial")):
            got = trial_graph(family, 30, 4, ids, id_seed=9)
            assert_same_graph(got, assign(make(family, 30, seed=4), ids,
                                          seed=9))

    def test_id_seed_defaults_to_seed(self, memo):
        assert trial_graph("gnp-sparse", 30, 3) is trial_graph(
            "gnp-sparse", 30, 3, id_seed=3)
        assert len(memo) == 1

    def test_seed_invariant_slots_are_dropped(self, memo):
        # Seed-free topology and seed-free IDs: one graph for all seeds.
        assert trial_graph("path", 12, 1, "sequential") is trial_graph(
            "path", 12, 7, "sequential", id_seed=5)
        # Seed-free topology, seeded IDs: one graph per ID seed.
        a = trial_graph("cycle", 12, 0, id_seed=1)
        assert trial_graph("cycle", 12, 8, id_seed=1) is a
        assert trial_graph("cycle", 12, 0, id_seed=2).csr.uids != a.csr.uids
        # Seeded topology: the topology seed stays in the key.
        assert trial_graph("gnp-sparse", 30, 1, "sequential") is not (
            trial_graph("gnp-sparse", 30, 2, "sequential"))
        assert set(memo) == {
            ("path", 12, None, "sequential", None),
            cycle_key(12, 1), cycle_key(12, 2),
            ("gnp-sparse", 30, 1, "sequential", None),
            ("gnp-sparse", 30, 2, "sequential", None),
        }


class TestBounds:
    def test_evicts_least_recently_used_past_the_arc_bound(
            self, memo, monkeypatch):
        monkeypatch.setattr(ids_module, "TRIAL_GRAPH_ARCS", 100)
        first = trial_graph("cycle", 20, id_seed=0)    # 40 arcs
        trial_graph("cycle", 21, id_seed=0)            # 82 arcs held
        assert list(memo) == [cycle_key(20, 0), cycle_key(21, 0)]
        trial_graph("cycle", 22, id_seed=0)            # 126 > 100
        assert list(memo) == [cycle_key(21, 0), cycle_key(22, 0)]
        trial_graph("cycle", 21, id_seed=0)            # a hit refreshes it
        trial_graph("cycle", 23, id_seed=0)            # 132 > 100
        assert list(memo) == [cycle_key(21, 0), cycle_key(23, 0)]
        assert memo.arcs == sum(2 * g.m for g in memo.values()) <= 100
        # An evicted graph is rebuilt, not resurrected.
        again = trial_graph("cycle", 20, id_seed=0)
        assert again is not first
        assert_same_graph(again, first)

    def test_newest_graph_is_always_kept(self, memo, monkeypatch):
        monkeypatch.setattr(ids_module, "TRIAL_GRAPH_ARCS", 10)
        big = trial_graph("cycle", 50, id_seed=0)  # 100 arcs > bound
        assert list(memo) == [cycle_key(50, 0)]
        assert trial_graph("cycle", 50, id_seed=0) is big
        trial_graph("cycle", 60, id_seed=0)
        assert list(memo) == [cycle_key(60, 0)]

    def test_evicts_least_recently_used_past_the_graph_cap(
            self, memo, monkeypatch):
        monkeypatch.setattr(ids_module, "TRIAL_GRAPH_CAP", 3)
        for n in range(10, 14):
            trial_graph("cycle", n, id_seed=0)
        assert list(memo) == [cycle_key(n, 0) for n in (11, 12, 13)]
        trial_graph("cycle", 11, id_seed=0)            # a hit refreshes it
        trial_graph("cycle", 14, id_seed=0)
        assert list(memo) == [cycle_key(n, 0) for n in (13, 11, 14)]

    def test_running_arc_total_matches_held_graphs(self, memo):
        # A long sweep over distinct small graphs: the memo stops at its
        # graph cap, and its running total tracks every insert and
        # eviction.
        for seed in range(ids_module.TRIAL_GRAPH_CAP + 70):
            trial_graph("gnp-sparse", 24, seed)
            assert memo.arcs == sum(2 * g.m for g in memo.values())
        assert len(memo) == ids_module.TRIAL_GRAPH_CAP
        assert memo.arcs <= ids_module.TRIAL_GRAPH_ARCS

    def test_default_bounds_cover_the_drivers_reuse(self):
        # The tables revisit a graph at most 70 graphs and 36,450 arcs
        # after its last use (quick and full passes, E1-E11 and A1-A3).
        assert ids_module.TRIAL_GRAPH_CAP >= 70
        assert ids_module.TRIAL_GRAPH_ARCS >= 36_450


@pytest.fixture(scope="module")
def quick_pass():
    """Every E1-E11 quick table (seed 0) from an empty memo: the graph
    builds per table and the memo the pass leaves behind."""
    builds: Counter = Counter()
    table = [None]
    real_make = ids_module.make

    def counting_make(*args, **kwargs):
        builds[table[0]] += 1
        return real_make(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        memo = ids_module._GraphMemo()
        mp.setattr(ids_module, "_TRIAL_GRAPHS", memo)
        mp.setattr(ids_module, "make", counting_make)
        for name, driver in EXPERIMENTS.items():
            table[0] = name
            driver(quick=True, seed=0, workers=1)
    return builds, memo


class TestQuickPass:
    def test_each_distinct_graph_built_once(self, quick_pass):
        builds, memo = quick_pass
        assert builds["e02"] == 10  # 10 cycles for the reference + 6 k's
        assert builds["e08"] == 20  # 20 G(n, p) graphs for 4 claimed N's
        assert builds["e05"] == 0   # E1's two grids, reused
        assert sum(builds.values()) == len(memo) == 75

    def test_memoized_graphs_equal_fresh_builds(self, quick_pass):
        _builds, memo = quick_pass
        for (family, n, seed, ids, id_seed), graph in memo.items():
            fresh = assign(make(family, n, seed=seed or 0), ids,
                           seed=id_seed or 0)
            assert_same_graph(graph, fresh)


class TestE10Sizes:
    def test_odd_size_scenario_is_refused(self, memo):
        # "regular-3" rounds an odd n up to n + 1; E10 rows record n, so
        # the task refuses an odd n instead of running the wrong graph.
        odd = sweep_scenario("e10-odd", "e10", "regular-3", (31,),
                             seed_count=1, base=0)
        with pytest.raises(ConfigurationError, match="must be even"):
            odd.run(workers=1)
        assert not memo
        even = sweep_scenario("e10-even", "e10", "regular-3", (32,),
                              seed_count=1, base=0)
        assert [r.ok for r in even.run(workers=1)] == [True]
        assert set(memo) == {("regular-3", 32, 0, "random", 0)}


class TestLazyCoordinatorImports:
    def test_experiments_leave_the_coordinator_stack_unimported(self):
        script = textwrap.dedent("""
            import sys
            import repro.analysis.experiments
            import repro.sim.batch
            heavy = ["repro.sim.batch.distrib", "repro.sim.batch.faults",
                     "http.server"]
            print([name for name in heavy if name in sys.modules])
            from repro.sim.batch import CoordinatorServer, RoundFaultPlan
            from repro.sim.batch.distrib import CoordinatorServer as server
            from repro.sim.batch.faults import RoundFaultPlan as plan
            print(CoordinatorServer is server, RoundFaultPlan is plan)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[:2] == ["[]", "True True"]

    def test_lazy_names_stay_exported(self):
        import repro.sim.batch as batch

        for name in batch.__all__:
            assert getattr(batch, name) is not None
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            batch.nope
