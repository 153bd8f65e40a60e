"""The seed-sweep runner: grid construction, fan-out, determinism.

The load-bearing guarantee is the regression test that ``workers=1``
and ``workers=4`` return result-for-result identical lists — process
fan-out must never change what a sweep computes, only how fast.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import _e08_trial, scenario_plan
from repro.errors import ConfigurationError
from repro.sim.batch import (
    ColumnarStore,
    TrialResult,
    TrialSpec,
    aggregate,
    batched,
    flood_min_trial,
    grid,
    luby_mis_trial,
    merge_stores,
    resolve_workers,
    run_trials,
)
from repro.sim.batch.runner import task_name_of


class TestTrialSpec:
    def test_of_sorts_params(self):
        spec = TrialSpec.of("cycle", 12, 3, zeta=1, alpha=2)
        assert spec.params == (("alpha", 2), ("zeta", 1))
        assert spec.param("alpha") == 2
        assert spec.param("missing", "dflt") == "dflt"
        assert spec.kwargs == {"alpha": 2, "zeta": 1}

    def test_specs_are_hashable_and_comparable(self):
        a = TrialSpec.of("cycle", 12, 3, k=1)
        b = TrialSpec.of("cycle", 12, 3, k=1)
        assert a == b and hash(a) == hash(b)

    def test_direct_construction_is_canonicalized(self):
        """Regression: unsorted params passed directly (not via .of) must
        still compare and hash equal — equal specs can never produce
        distinct durable-store keys."""
        direct = TrialSpec("cycle", 12, 3, (("zeta", 1), ("alpha", 2)))
        via_of = TrialSpec.of("cycle", 12, 3, zeta=1, alpha=2)
        assert direct.params == (("alpha", 2), ("zeta", 1))
        assert direct == via_of and hash(direct) == hash(via_of)

    def test_grid_is_full_cross_product(self):
        specs = grid(["path", "cycle"], [10, 20], range(3), radius=2)
        assert len(specs) == 12
        assert specs[0] == TrialSpec.of("path", 10, 0, radius=2)
        assert specs[-1] == TrialSpec.of("cycle", 20, 2, radius=2)


class TestRunTrials:
    def test_serial_runs_in_order(self):
        specs = grid(["cycle"], [12], range(4), radius=3)
        results = run_trials(flood_min_trial, specs, workers=1)
        assert [r.spec for r in results] == specs
        assert all(isinstance(r, TrialResult) for r in results)

    def test_workers_determinism(self):
        """Seed determinism across process fan-out (the regression)."""
        specs = grid(["cycle", "gnp-sparse", "expander"], [16, 24], range(3))
        serial = run_trials(luby_mis_trial, specs, workers=1)
        fanned = run_trials(luby_mis_trial, specs, workers=4)
        assert serial == fanned

    def test_workers_determinism_flood(self):
        specs = grid(["caterpillar", "tree"], [20], range(4), radius=6)
        serial = run_trials(flood_min_trial, specs, workers=1)
        fanned = run_trials(flood_min_trial, specs, workers=4)
        assert serial == fanned

    def test_chunksize_never_affects_results(self):
        """Adaptive default chunking (chunksize=None) and any explicit
        chunk size return the same results in the same order."""
        specs = grid(["cycle", "tree"], [16], range(4), radius=6)
        baseline = run_trials(flood_min_trial, specs, workers=1)
        for chunksize in (None, 1, 2, 100):
            fanned = run_trials(flood_min_trial, specs, workers=4,
                                chunksize=chunksize)
            assert fanned == baseline
            assert [r.spec for r in fanned] == specs

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            run_trials(flood_min_trial, grid(["cycle"], [12], [0]), workers=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2

    def test_non_integer_env_is_a_configuration_error(self, monkeypatch):
        """$REPRO_WORKERS=junk must not leak a bare ValueError."""
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="many"):
            resolve_workers(None)

    def test_empty_grid(self):
        assert run_trials(flood_min_trial, [], workers=4) == []


#: E8's store namespace, shared by both ways of running its task.
E8_NAME = task_name_of(_e08_trial, None)


def _e08_one_by_one(spec: TrialSpec) -> TrialResult:
    """E8's task without its batch form: the runner maps it per spec."""
    return _e08_trial(spec)


def _e08_specs():
    """E8's quick grid: four sweeps with different phases and caps."""
    return [spec for scenario in scenario_plan("e08", quick=True, seed=0)
            for spec in scenario.compile()]


def _store_bytes(root) -> dict:
    """Every file under ``root`` as relpath -> bytes."""
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class _Recording:
    """A store that logs each put into a shared event list."""

    def __init__(self, store, events) -> None:
        self.store, self.events = store, events

    def get(self, name, spec):
        return self.store.get(name, spec)

    def put(self, name, spec, result):
        self.events.append(("put", spec))
        self.store.put(name, spec, result)

    def flush(self):
        self.store.flush()

    def __len__(self):
        return len(self.store)


class TestBatchForm:
    """A task's batch form changes nothing per spec: results, store
    bytes, cache hits, shard slices and progress calls all equal the
    per-spec run's."""

    def sweep(self, task, root, **kwargs):
        store = ColumnarStore(str(root))
        results = run_trials(task, _e08_specs(), store=store,
                             task_name=E8_NAME, **kwargs)
        store.close()
        return results

    def test_batch_form_gets_the_whole_list(self, monkeypatch):
        batches = []
        real = _e08_trial.batch

        def spy(specs):
            batches.append(list(specs))
            return real(specs)
        monkeypatch.setattr(_e08_trial, "batch", spy)
        specs = _e08_specs()
        assert run_trials(_e08_trial, specs, workers=1) == \
            run_trials(_e08_one_by_one, specs, workers=1)
        assert batches == [specs]

    def test_cold_and_warm_store(self, tmp_path):
        batched = self.sweep(_e08_trial, tmp_path / "batched", workers=1)
        per_spec = self.sweep(_e08_one_by_one, tmp_path / "per-spec",
                              workers=1)
        assert batched == per_spec
        assert _store_bytes(tmp_path / "batched") == \
            _store_bytes(tmp_path / "per-spec")
        before = _store_bytes(tmp_path / "batched")
        calls = []
        store = ColumnarStore(str(tmp_path / "batched"))
        warm = run_trials(_e08_trial, _e08_specs(), store=store,
                          task_name=E8_NAME,
                          progress=lambda spec, result: calls.append(spec))
        store.close()
        assert warm == batched and calls == []
        assert _store_bytes(tmp_path / "batched") == before

    def test_progress_follows_each_put_in_grid_order(self, tmp_path):
        specs = _e08_specs()
        store = ColumnarStore(str(tmp_path / "store"))
        # Warm every third spec first: those are cache hits below.
        cached = specs[::3]
        run_trials(_e08_one_by_one, cached, store=store, task_name=E8_NAME)
        events = []
        run_trials(_e08_trial, specs, store=_Recording(store, events),
                   task_name=E8_NAME,
                   progress=lambda spec, result: events.append(
                       ("progress", spec)))
        store.close()
        fresh = [spec for spec in specs if spec not in cached]
        assert events == [event for spec in fresh
                          for event in (("put", spec), ("progress", spec))]

    def test_shards_merged(self, tmp_path):
        for label, task in (("batched", _e08_trial),
                            ("per-spec", _e08_one_by_one)):
            hosts = []
            for index in range(2):
                root = tmp_path / f"{label}-host{index}"
                self.sweep(task, root, shard=(index, 2))
                hosts.append(ColumnarStore(str(root)))
            merged = ColumnarStore(str(tmp_path / f"{label}-merged"))
            merge_stores(merged, hosts)
            for store in hosts + [merged]:
                store.close()
        assert _store_bytes(tmp_path / "batched-merged") == \
            _store_bytes(tmp_path / "per-spec-merged")
        for index in range(2):
            assert _store_bytes(tmp_path / f"batched-host{index}") == \
                _store_bytes(tmp_path / f"per-spec-host{index}")
        store = ColumnarStore(str(tmp_path / "batched-merged"))
        replayed = run_trials(_e08_trial, _e08_specs(), store=store,
                              task_name=E8_NAME)
        store.close()
        assert replayed == run_trials(_e08_one_by_one, _e08_specs())

    def test_batch_form_must_answer_every_spec(self):
        @batched(lambda specs: [TrialResult(spec, True) for spec in specs[1:]])
        def task(spec):
            return TrialResult(spec, True)
        with pytest.raises(ValueError):
            run_trials(task, grid(["cycle"], [8], range(3)), workers=1)

    def test_two_workers(self, tmp_path, monkeypatch):
        serial = self.sweep(_e08_one_by_one, tmp_path / "serial", workers=1)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert self.sweep(_e08_trial, tmp_path / "pooled") == serial
        assert _store_bytes(tmp_path / "pooled") == \
            _store_bytes(tmp_path / "serial")
        calls = []
        storeless = run_trials(_e08_trial, _e08_specs(), chunksize=7,
                               progress=lambda spec, r: calls.append(spec))
        assert storeless == serial and calls == _e08_specs()


class TestAggregate:
    def test_groups_and_summarizes(self):
        specs = grid(["cycle"], [12, 18], range(3), radius=12)
        rows = aggregate(run_trials(flood_min_trial, specs, workers=1))
        assert len(rows) == 2
        for row in rows:
            assert row["family"] == "cycle"
            assert row["trials"] == 3
            # radius >= diameter, so FloodMin finds the global min.
            assert row["success"] == 1.0
            assert row["rounds(min)"] <= row["rounds(mean)"] <= row["rounds(max)"]

    def test_custom_grouping(self):
        results = [
            TrialResult(TrialSpec.of("a", 8, s, k=k), True, {"x": s})
            for k in (1, 2) for s in range(2)
        ]
        rows = aggregate(results, by=("family", "n", "seed"))
        assert len(rows) == 2  # grouped by seed, k collapses
        assert rows[0]["x(mean)"] == 0 and rows[1]["x(mean)"] == 1

    def test_bool_metrics_are_not_aggregated(self):
        """Bools are verdicts, not metrics: no (min)/(mean)/(max) columns."""
        results = [
            TrialResult(TrialSpec.of("a", 8, s), True,
                        {"valid": s % 2 == 0, "rounds": 3 + s})
            for s in range(4)
        ]
        (row,) = aggregate(results)
        assert row["rounds(mean)"] == 4.5  # numeric metrics still summarized
        for suffix in ("min", "mean", "max"):
            assert f"valid({suffix})" not in row
