"""The durable sweep store: keys, round trips, crash/resume, shard+merge.

The load-bearing guarantees, each pinned here:

* equal specs can never produce distinct store keys (params are
  canonicalized on construction, however the spec was built);
* a cached result is byte-for-byte the result a fresh run computes
  (ints, floats, bools, strings, tuples, None all survive the store
  round trip, through the JSONL tail and through packed segments);
* a sweep interrupted at any prefix and resumed via the store yields
  results, aggregates, and store contents identical to an uninterrupted
  run — across worker counts and both engines (a fault knob picks
  FastEngine, a clean spec ArrayEngine);
* a 2-host-style shard+merge of the same grid equals the single-host
  run, with nothing recomputed on replay.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    RESULT_FORMAT_VERSION,
    ColumnarStore,
    TrialResult,
    TrialSpec,
    aggregate,
    canonical_spec,
    compact,
    default_chunksize,
    flood_min_trial,
    grid,
    merge_stores,
    run_trials,
    shard,
    spec_key,
    verify_migration,
)
from repro.sim.batch.colstore import TAIL_NAME
from repro.sim.batch.store import legacy_records


def _probe_task(spec: TrialSpec) -> TrialResult:
    """Deterministic task with every storable data type (picklable)."""
    return TrialResult(spec, spec.seed % 2 == 0, {
        "seed": spec.seed,
        "third": spec.seed / 3.0,
        "family": spec.family,
        "flag": spec.seed > 0,
        "pair": (spec.n, spec.family),
        "nothing": None,
    })


def _poison_task(spec: TrialSpec) -> TrialResult:
    """A task that must never run — proves replays come from the cache."""
    raise AssertionError(f"task executed for {spec} despite a full cache")


class _Killed:
    """The store a sweep sees when it is killed before its final flush.

    Puts land in the fsynced tail exactly as in a live sweep, but the
    end-of-sweep segment pack never happens.
    """

    def __init__(self, store) -> None:
        self.get, self.put = store.get, store.put


def _store_bytes(root: str) -> dict:
    """Every file under ``root`` as relpath -> bytes, for exact comparison."""
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class TestSpecKeys:
    def test_direct_construction_canonicalizes_params(self):
        """Regression: unsorted direct construction == sorted TrialSpec.of."""
        direct = TrialSpec("cycle", 12, 3, (("zeta", 1), ("alpha", 2)))
        via_of = TrialSpec.of("cycle", 12, 3, zeta=1, alpha=2)
        assert direct == via_of
        assert direct.params == (("alpha", 2), ("zeta", 1))
        assert hash(direct) == hash(via_of)
        assert spec_key("t", direct) == spec_key("t", via_of)

    def test_list_pairs_normalize_to_tuples(self):
        spec = TrialSpec("cycle", 12, 3, (["b", 1], ["a", 2]))
        assert spec.params == (("a", 2), ("b", 1))
        assert hash(spec) == hash(TrialSpec.of("cycle", 12, 3, a=2, b=1))

    def test_key_depends_on_task_name_and_version(self):
        spec = TrialSpec.of("cycle", 12, 3, k=1)
        assert spec_key("a", spec) != spec_key("b", spec)
        assert spec_key("a", spec, version=1) != spec_key("a", spec, version=2)

    def test_key_distinguishes_specs(self):
        assert (spec_key("t", TrialSpec.of("cycle", 12, 3, k=1))
                != spec_key("t", TrialSpec.of("cycle", 12, 3, k=2)))

    def test_tuple_valued_params_are_keyable(self):
        a = TrialSpec.of("cycle", 12, 3, window=(2, 5))
        b = TrialSpec.of("cycle", 12, 3, window=(2, 6))
        assert spec_key("t", a) != spec_key("t", b)


class TestStoreRoundTrip:
    def test_put_get_is_identity(self, tmp_path):
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        result = _probe_task(spec)
        store.put("t", spec, result)
        cached = store.get("t", spec)
        assert cached == result
        # Exact types, not just equality: bool stays bool, tuple stays
        # tuple, float stays float — aggregate() and the determinism
        # tests depend on it.
        assert isinstance(cached.data["seed"], int)
        assert not isinstance(cached.data["flag"], int) or \
            isinstance(cached.data["flag"], bool)
        assert isinstance(cached.data["pair"], tuple)
        assert isinstance(cached.data["third"], float)
        assert cached.data["nothing"] is None

    def test_reload_from_disk(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        ColumnarStore(tmp_path).put("t", spec, _probe_task(spec))
        reloaded = ColumnarStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("t", spec) == _probe_task(spec)

    def test_miss_returns_none(self, tmp_path):
        store = ColumnarStore(tmp_path)
        assert store.get("t", TrialSpec.of("cycle", 12, 3)) is None

    def test_unstorable_data_raises(self, tmp_path):
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        with pytest.raises(ConfigurationError, match="not storable"):
            store.put("t", spec, TrialResult(spec, True, {"x": object()}))

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """A crash mid-append loses only the unacknowledged record."""
        store = ColumnarStore(tmp_path)
        specs = [TrialSpec.of("cycle", 12, s) for s in range(3)]
        for spec in specs:
            store.put("t", spec, _probe_task(spec))
        store.close()
        with open(tmp_path / TAIL_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"key": "deadbeef", "task": "t", "ok": tr')
        reopened = ColumnarStore(tmp_path)
        assert len(reopened) == 3
        for spec in specs:
            assert reopened.get("t", spec) == _probe_task(spec)
        # And appending after the torn line still round-trips.
        extra = TrialSpec.of("cycle", 12, 99)
        reopened.put("t", extra, _probe_task(extra))
        assert ColumnarStore(tmp_path).get("t", extra) == _probe_task(extra)

    def test_put_is_idempotent(self, tmp_path):
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("t", spec, _probe_task(spec))
        store.put("t", spec, _probe_task(spec))
        assert len(store) == 1

    def test_put_conflicting_result_raises(self, tmp_path):
        """Regression: a divergent payload for an existing key used to be
        silently dropped; it must raise like merge_stores' conflict rule."""
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("t", spec, TrialResult(spec, True, {"x": 1}))
        with pytest.raises(ConfigurationError, match="conflicting"):
            store.put("t", spec, TrialResult(spec, True, {"x": 2}))
        with pytest.raises(ConfigurationError, match="conflicting"):
            store.put("t", spec, TrialResult(spec, False, {"x": 1}))
        # The stored record is untouched by the rejected puts.
        assert store.get("t", spec) == TrialResult(spec, True, {"x": 1})
        assert len(store) == 1

    def test_put_conflict_detected_across_reopen(self, tmp_path):
        """Disk-loaded records compare equal to identical fresh ones
        (idempotent re-put) and unequal to divergent ones (conflict)."""
        spec = TrialSpec.of("cycle", 12, 3)
        ColumnarStore(tmp_path).put("t", spec, _probe_task(spec))
        reopened = ColumnarStore(tmp_path)
        reopened.put("t", spec, _probe_task(spec))
        assert len(reopened) == 1
        with pytest.raises(ConfigurationError, match="conflicting"):
            reopened.put("t", spec, TrialResult(spec, True, {"seed": -1}))

    def test_describe_lists_tasks(self, tmp_path):
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3)
        store.put("beta", spec, _probe_task(spec))
        store.put("alpha", spec, _probe_task(spec))
        text = store.describe()
        assert "2 result(s)" in text
        assert text.index("alpha") < text.index("beta")


class TestRunTrialsWithStore:
    def test_fills_store_and_matches_cold_run(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(3), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)
        store = ColumnarStore(tmp_path)
        warm = run_trials(flood_min_trial, specs, store=store)
        assert warm == cold
        assert len(store) == len(specs)

    def test_replay_never_executes_the_task(self, tmp_path):
        specs = [TrialSpec.of("cycle", 12, s) for s in range(4)]
        store = ColumnarStore(tmp_path)
        first = run_trials(_probe_task, specs, store=store, task_name="t")
        replay = run_trials(_poison_task, specs, store=store, task_name="t")
        assert replay == first

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        store = ColumnarStore(tmp_path)
        results = run_trials(_probe_task, [spec, spec, spec], store=store)
        assert results == [_probe_task(spec)] * 3
        assert len(store) == 1

    def test_invalid_workers_rejected_even_on_warm_cache(self, tmp_path):
        """workers=0 must fail identically whether or not the cache is
        already full — cache state must not mask misconfiguration."""
        specs = [TrialSpec.of("cycle", 12, s) for s in range(3)]
        store = ColumnarStore(tmp_path)
        run_trials(_probe_task, specs, store=store, task_name="t")
        with pytest.raises(ConfigurationError, match="workers"):
            run_trials(_probe_task, specs, workers=0, store=store,
                       task_name="t")

    def test_shard_requires_store(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_trials(_probe_task, [TrialSpec.of("cycle", 12, 3)],
                       shard=(0, 2))

    def test_default_task_name_is_module_qualified(self, tmp_path):
        store = ColumnarStore(tmp_path)
        run_trials(_probe_task, [TrialSpec.of("cycle", 12, 3)], store=store)
        (task_name,) = store.tasks()
        assert task_name.endswith("._probe_task")
        assert task_name.startswith(_probe_task.__module__)


class TestResumeDeterminism:
    """Satellite: kill-at-any-prefix + resume == uninterrupted, exactly."""

    #: The sweep's fault knobs: a lossy sweep and a clean one.
    SWEEP_FAULTS = {"lossy": {"fault_loss": 0.25}, "clean": {}}

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("faults", ["lossy", "clean"])
    def test_interrupted_resume_is_byte_identical(self, tmp_path, workers,
                                                  faults):
        specs = grid(["cycle", "path"], [12], range(3), radius=12,
                     **self.SWEEP_FAULTS[faults])
        cold = run_trials(flood_min_trial, specs, workers=1)

        uninterrupted = ColumnarStore(tmp_path / "whole")
        whole = run_trials(flood_min_trial, specs, workers=workers,
                           store=uninterrupted)

        # Simulate a kill after an arbitrary prefix: only the first
        # trials reached the store's tail, then the sweep reruns end to
        # end in a fresh process.
        killed = ColumnarStore(tmp_path / "resumed")
        run_trials(flood_min_trial, specs[:4], workers=workers,
                   store=_Killed(killed))
        killed.close()
        interrupted = ColumnarStore(tmp_path / "resumed")
        resumed = run_trials(flood_min_trial, specs, workers=workers,
                             store=interrupted)

        assert whole == cold
        assert resumed == cold
        assert aggregate(resumed) == aggregate(cold)
        uninterrupted.close()
        interrupted.close()
        assert (_store_bytes(str(tmp_path / "resumed"))
                == _store_bytes(str(tmp_path / "whole")))

    def test_multi_sweep_resume_is_byte_identical(self, tmp_path):
        """A kill inside the second of two sweeps: rerunning both packs
        the same segments as the uninterrupted pair (the first, fully
        cached sweep must not pack the cut sweep's tail rows early)."""
        first = grid(["cycle"], [12], range(3), radius=12)
        second = grid(["path"], [12], range(4), radius=12)
        whole = ColumnarStore(tmp_path / "whole")
        for specs in (first, second):
            run_trials(flood_min_trial, specs, store=whole)
        whole.close()

        killed = ColumnarStore(tmp_path / "resumed")
        run_trials(flood_min_trial, first, store=killed)
        run_trials(flood_min_trial, second[:2], store=_Killed(killed))
        killed.close()
        resumed = ColumnarStore(tmp_path / "resumed")
        for specs in (first, second):
            run_trials(flood_min_trial, specs, store=resumed)
        resumed.close()
        assert (_store_bytes(str(tmp_path / "resumed"))
                == _store_bytes(str(tmp_path / "whole")))

    def test_resume_at_every_prefix(self, tmp_path):
        specs = grid(["cycle"], [12], range(5), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)
        for cut in range(len(specs) + 1):
            store = ColumnarStore(tmp_path / f"cut{cut}")
            run_trials(flood_min_trial, specs[:cut], store=store)
            assert run_trials(flood_min_trial, specs, store=store) == cold
            assert len(store) == len(specs)


class TestShardAndMerge:
    def test_shard_partitions_the_grid(self):
        specs = grid(["cycle", "path"], [12, 16], range(3))
        parts = [shard(specs, i, 3) for i in range(3)]
        seen = [spec for part in parts for spec in part]
        assert sorted(seen, key=specs.index) == specs
        assert sum(len(part) for part in parts) == len(specs)
        # Order within a slice follows grid order.
        assert parts[0] == specs[0::3]

    def test_shard_validates_bounds(self):
        specs = grid(["cycle"], [12], range(3))
        with pytest.raises(ConfigurationError):
            shard(specs, 3, 3)
        with pytest.raises(ConfigurationError):
            shard(specs, -1, 3)
        with pytest.raises(ConfigurationError):
            shard(specs, 0, 0)

    def test_shard_count_larger_than_grid_is_rejected(self):
        """Regression: count > len(specs) used to hand back silently
        empty slices; now it is a loud mis-sized-fleet error."""
        specs = grid(["cycle"], [12], range(3))
        with pytest.raises(ConfigurationError, match="exceeds the grid"):
            shard(specs, 0, 4)
        with pytest.raises(ConfigurationError, match="exceeds the grid"):
            shard([], 0, 1)
        # count == len(specs) is the boundary: one spec per slice.
        parts = [shard(specs, i, 3) for i in range(3)]
        assert [len(part) for part in parts] == [1, 1, 1]

    def test_two_host_shard_merge_equals_single_host(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(4), radius=12)
        cold = run_trials(flood_min_trial, specs, workers=1)

        host0 = ColumnarStore(tmp_path / "host0")
        host1 = ColumnarStore(tmp_path / "host1")
        partial = run_trials(flood_min_trial, specs, store=host0,
                             shard=(0, 2))
        run_trials(flood_min_trial, specs, store=host1, shard=(1, 2))
        assert len(host0) + len(host1) == len(specs)
        # Unowned positions come back as placeholders, never stored.
        assert [r for r in partial if r.data] == [r for i, r
                                                  in enumerate(partial)
                                                  if i % 2 == 0]

        merged = ColumnarStore(tmp_path / "merged")
        stats = merge_stores(merged, [host0, host1])
        assert stats == {"added": len(specs), "duplicate": 0}
        replay = run_trials(_poison_task, specs, store=merged,
                            task_name="repro.sim.batch.tasks.flood_min_trial")
        assert replay == cold
        assert aggregate(replay) == aggregate(cold)

    def test_merge_is_idempotent(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        src = ColumnarStore(tmp_path / "src")
        src.put("t", spec, _probe_task(spec))
        dest = ColumnarStore(tmp_path / "dest")
        assert merge_stores(dest, [src]) == {"added": 1, "duplicate": 0}
        assert merge_stores(dest, [src]) == {"added": 0, "duplicate": 1}
        assert len(dest) == 1

    def test_merge_accepts_paths(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        ColumnarStore(tmp_path / "src").put("t", spec, _probe_task(spec))
        dest = ColumnarStore(tmp_path / "dest")
        merge_stores(dest, [str(tmp_path / "src")])
        assert dest.get("t", spec) == _probe_task(spec)

    def test_merge_refuses_empty_source_list(self, tmp_path):
        """Regression: merging zero sources used to "succeed" as a no-op,
        hiding globs/fleets that produced no stores."""
        dest = ColumnarStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_stores(dest, [])
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_stores(dest, iter(()))
        assert len(dest) == 0

    def test_merge_refuses_missing_source(self, tmp_path):
        """A typo'd source path must fail loudly, not merge nothing."""
        dest = ColumnarStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError, match="does not exist"):
            merge_stores(dest, [str(tmp_path / "no-such-store")])
        assert not (tmp_path / "no-such-store").exists()

    def test_merge_refuses_conflicting_records(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        a = ColumnarStore(tmp_path / "a")
        a.put("t", spec, TrialResult(spec, True, {"x": 1}))
        b = ColumnarStore(tmp_path / "b")
        b.put("t", spec, TrialResult(spec, False, {"x": 2}))
        dest = ColumnarStore(tmp_path / "dest")
        merge_stores(dest, [a])
        with pytest.raises(ConfigurationError, match="conflicting"):
            merge_stores(dest, [b])


class TestAdaptiveChunksize:
    """Satellite: adaptive chunking must not reorder or change results."""

    def test_default_chunksize_formula(self):
        assert default_chunksize(64, 2) == 4
        assert default_chunksize(3, 8) == 1
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1000, 4) == 31

    def test_adaptive_equals_chunksize_one(self):
        specs = grid(["cycle", "gnp-sparse"], [16], range(5), radius=12)
        adaptive = run_trials(flood_min_trial, specs, workers=4)
        one = run_trials(flood_min_trial, specs, workers=4, chunksize=1)
        serial = run_trials(flood_min_trial, specs, workers=1)
        assert adaptive == one == serial
        assert [r.spec for r in adaptive] == specs

    def test_adaptive_equals_chunksize_one_with_store(self, tmp_path):
        specs = grid(["cycle"], [12], range(6), radius=12)
        s1 = ColumnarStore(tmp_path / "one")
        s2 = ColumnarStore(tmp_path / "auto")
        one = run_trials(flood_min_trial, specs, workers=4, chunksize=1,
                         store=s1)
        auto = run_trials(flood_min_trial, specs, workers=4, store=s2)
        assert one == auto
        s1.close()
        s2.close()
        assert (_store_bytes(str(tmp_path / "one"))
                == _store_bytes(str(tmp_path / "auto")))


class TestExperimentsWithStore:
    def test_e06_resumes_from_store(self, tmp_path):
        from repro.analysis import EXPERIMENTS

        store = ColumnarStore(tmp_path)
        first = EXPERIMENTS["e06"](quick=True, seed=2, store=store)
        filled = len(store)
        assert filled > 0
        again = EXPERIMENTS["e06"](quick=True, seed=2, store=store)
        assert len(store) == filled  # pure cache replay
        assert again.render() == first.render()
        cold = EXPERIMENTS["e06"](quick=True, seed=2)
        assert cold.render() == first.render()

    def test_run_all_shard_mode_runs_only_sweeping_drivers(self, tmp_path):
        """Shard hosts must not burn time on drivers that store nothing."""
        from unittest import mock

        from repro.analysis import experiments

        calls = []

        def fake_driver(name):
            def driver(**kwargs):
                calls.append(name)
                return experiments.Table(title=name, rows=[])
            return driver

        registry = {name: fake_driver(name)
                    for name in experiments.EXPERIMENTS}
        with mock.patch.dict(experiments.EXPERIMENTS, registry,
                             clear=True):
            experiments.run_all(store=ColumnarStore(tmp_path), shard=(0, 2))
        assert sorted(calls) == sorted(experiments.SWEEPING)

    def test_e06_sharded_stores_merge_to_full_table(self, tmp_path):
        from repro.analysis import EXPERIMENTS

        host0 = ColumnarStore(tmp_path / "h0")
        host1 = ColumnarStore(tmp_path / "h1")
        EXPERIMENTS["e06"](quick=True, seed=2, store=host0, shard=(0, 2))
        EXPERIMENTS["e06"](quick=True, seed=2, store=host1, shard=(1, 2))
        merged = ColumnarStore(tmp_path / "merged")
        merge_stores(merged, [host0, host1])
        before = len(merged)
        table = EXPERIMENTS["e06"](quick=True, seed=2, store=merged)
        assert len(merged) == before
        assert table.render() == EXPERIMENTS["e06"](quick=True,
                                                    seed=2).render()


class TestStoreCLI:
    def test_list_and_merge_flags(self, tmp_path, capsys):
        from repro.analysis.cli import main

        spec = TrialSpec.of("cycle", 12, 3)
        ColumnarStore(tmp_path / "src").put("t", spec, _probe_task(spec))
        dest = str(tmp_path / "dest")
        assert main(["--store", dest, "--merge",
                     str(tmp_path / "src")]) == 0
        assert "1 added" in capsys.readouterr().out
        assert main(["--store", dest, "--list"]) == 0
        out = capsys.readouterr().out
        assert "1 result(s)" in out and "t: 1" in out

    def test_invalid_flag_combinations(self, tmp_path, capsys):
        from repro.analysis.cli import main

        assert main(["--shard-index", "0"]) == 2
        assert main(["--shard-index", "0", "--shard-count", "2"]) == 2
        assert main(["--merge", str(tmp_path / "src")]) == 2
        assert main(["--store", str(tmp_path / "s"),
                     "--shard-index", "2", "--shard-count", "2"]) == 2
        assert main(["--store", str(tmp_path / "s"), "--merge",
                     str(tmp_path / "no-such-store")]) == 2
        capsys.readouterr()

    def test_read_only_commands_refuse_missing_store(self, tmp_path, capsys):
        """Regression: --query/--list/--compact on a typo'd --store used
        to create an empty store and report on it with exit 0."""
        from repro.analysis.cli import main

        missing = str(tmp_path / "typo")
        for extra in (["--query", "family=cycle"], ["--list"],
                      ["--compact", str(tmp_path / "dest")]):
            assert main(["--store", missing, *extra]) == 2
            err = capsys.readouterr().err
            assert missing in err and "does not exist" in err
        assert sorted(os.listdir(tmp_path)) == []


def _record(task: str, spec: TrialSpec, data: dict) -> dict:
    """A raw store record, exactly as ``put`` would build it."""
    return {"version": RESULT_FORMAT_VERSION, "task": task,
            "key": spec_key(task, spec), "spec": canonical_spec(spec),
            "ok": True, "data": data}


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _legacy_fixture(root) -> list:
    """A hand-written legacy JSONL-shard store; returns its load order.

    Two shard files — one under a sanitized-and-hashed name, as the
    legacy writer named the file of task ``a/b`` — holding a torn
    trailing line, foreign lines, a blank line, and second copies of
    keys (in the same file and across files) that must lose to the
    first copy in sorted-file, line order.
    """
    shards = root / "shards"
    shards.mkdir(parents=True)
    ab0 = _record("a/b", TrialSpec.of("cycle", 8, 0), {"rounds": 1})
    t1 = _record("t", TrialSpec.of("cycle", 8, 1), {"rounds": 2})
    t2 = _record("t", TrialSpec.of("path", 8, 2), {"pair": {"__tuple__": [1, 2]}})
    hashed = hashlib.blake2b(b"a/b", digest_size=4).hexdigest()
    (shards / f"a_b-{hashed}.jsonl").write_text(
        _line(ab0) + '{"version": 1, "task": "a/b", "key": "0f')
    (shards / "notes.txt").write_text(_line(dict(t1, data={"rounds": 9})))
    (shards / "t.jsonl").write_text(
        '["not", "a", "record"]\n' + '{"task": "t"}\n' + _line(t1)
        + _line(dict(ab0, data={"rounds": 7})) + "\n"
        + _line(dict(t1, data={"rounds": 8})) + _line(t2))
    (root / "index.json").write_text('{"format": 1, "total": 3}\n')
    return [ab0, t1, t2]


class TestLegacyStores:
    """Legacy JSONL-shard stores: read once by compact, never opened live."""

    def test_reader_keeps_load_order_and_tolerance(self, tmp_path):
        expected = _legacy_fixture(tmp_path / "legacy")
        assert list(legacy_records(tmp_path / "legacy")) == expected

    def test_compact_verify_round_trip(self, tmp_path):
        expected = _legacy_fixture(tmp_path / "legacy")
        upgraded = compact(tmp_path / "legacy", tmp_path / "col",
                           flush_rows=2, verify=True)
        assert list(upgraded.records()) == expected
        assert verify_migration(tmp_path / "legacy", upgraded) == 3
        spec = TrialSpec.of("path", 8, 2)
        assert upgraded.get("t", spec) == TrialResult(spec, True,
                                                      {"pair": (1, 2)})
        extra = TrialSpec.of("cycle", 8, 99)
        upgraded.put("t", extra, _probe_task(extra))
        with pytest.raises(ConfigurationError, match="more records"):
            verify_migration(tmp_path / "legacy", upgraded)

    def test_compact_refuses_a_non_legacy_source(self, tmp_path):
        spec = TrialSpec.of("cycle", 8, 0)
        ColumnarStore(tmp_path / "col").put("t", spec, _probe_task(spec))
        with pytest.raises(ConfigurationError, match="not a legacy"):
            compact(tmp_path / "col", tmp_path / "dest")

    def test_merge_refuses_a_legacy_source(self, tmp_path):
        _legacy_fixture(tmp_path / "legacy")
        dest = ColumnarStore(tmp_path / "dest")
        with pytest.raises(ConfigurationError, match="--compact"):
            merge_stores(dest, [tmp_path / "legacy"])
        assert len(dest) == 0

    def test_sweep_cli_refuses_a_legacy_store(self, tmp_path, capsys):
        from repro.analysis.cli import main

        _legacy_fixture(tmp_path / "legacy")
        assert main(["e06", "--store", str(tmp_path / "legacy")]) == 2
        assert "--compact" in capsys.readouterr().err

    def test_compact_cli_upgrades_then_the_store_opens(self, tmp_path, capsys):
        from repro.analysis.cli import main

        expected = _legacy_fixture(tmp_path / "legacy")
        dest = str(tmp_path / "col")
        assert main(["--store", str(tmp_path / "legacy"),
                     "--compact", dest]) == 0
        assert "compacted 3 result(s)" in capsys.readouterr().out
        assert list(ColumnarStore(dest).records()) == expected
        assert main(["--store", dest, "--query", "task=t"]) == 0
        assert capsys.readouterr().out.startswith("2 of 3 result(s) match")
