"""The columnar trial store: round trips, crash windows, merge refusal.

The load-bearing guarantees, each pinned here:

* the legacy upgrade is lossless — compacting a JSONL-shard store
  yields records that re-serialize to the original shard lines byte for
  byte, content-addressed keys included — and every storable value type
  survives, including the dtype boundaries (int64 min/max in packed
  columns, ints beyond int64 rerouted to the ragged sidecar rather than
  silently wrapping);
* a torn final flush never loses or duplicates a trial: both crash
  windows of the segment commit protocol (stray unlisted segment
  directory; manifest-listed segment with an untruncated tail) recover
  on load to the exact same record stream;
* ``merge_stores`` refuses conflicting stores loudly, naming the first
  conflicting key and both record digests, whether the incoming copy
  sits in a source segment or in the source's tail;
* queries touch only the columns they filter on, ``select`` equals a
  brute-force filter of ``records()``, and ``aggregate`` is row-for-row
  identical to ``runner.aggregate``;
* the store drops into ``run_trials`` unchanged: a replayed sweep is
  served entirely from cache.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    ColumnarStore,
    TrialResult,
    TrialSpec,
    aggregate,
    compact,
    merge_stores,
    record_digest,
    run_trials,
    spec_key,
    verify_migration,
)
from repro.sim.batch.colstore import (
    DEFAULT_FLUSH_ROWS,
    TAIL_NAME,
    result_of_record,
)
from repro.sim.batch.store import jsonl_line

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def _probe_task(spec: TrialSpec) -> TrialResult:
    """Deterministic task with every storable data type (picklable)."""
    return TrialResult(spec, spec.seed % 2 == 0, {
        "rounds": spec.seed + 1,
        "third": spec.seed / 3.0,
        "family": spec.family,
        "flag": spec.seed > 0,
        "pair": (spec.n, spec.family),
        "nothing": None,
    })


def _poison_task(spec: TrialSpec) -> TrialResult:
    """A task that must never run — proves replays come from the cache."""
    raise AssertionError(f"task executed for {spec} despite a full cache")


def _store_bytes(root: str) -> dict:
    """Every file under ``root`` as relpath -> bytes, for exact comparison."""
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


def _legacy_store(root, *stores) -> list:
    """Write the records of ``stores`` as a legacy JSONL-shard store.

    One shard file per task, lines in put order — the layout older
    builds wrote. Returns the records in legacy load order (sorted
    shard files, then line order).
    """
    by_task = {}
    for store in stores:
        for record in store.records():
            by_task.setdefault(record["task"], []).append(record)
    shards = root / "shards"
    shards.mkdir(parents=True)
    for task, records in by_task.items():
        (shards / f"{task}.jsonl").write_text(
            "".join(jsonl_line(record) for record in records))
    (root / "index.json").write_text("{}\n")
    return [record for task in sorted(by_task) for record in by_task[task]]


def _fill(store, count: int, task: str = "t", family: str = "cycle"):
    """``count`` probe results into ``store``; returns their specs."""
    specs = [TrialSpec.of(family, 8 * (i % 3 + 1), i) for i in range(count)]
    for spec in specs:
        store.put(task, spec, _probe_task(spec))
    return specs


class TestRoundTrip:
    def test_put_get_is_identity_with_exact_types(self, tmp_path):
        store = ColumnarStore(tmp_path)
        spec = TrialSpec.of("cycle", 12, 3, window=(2, 5))
        store.put("t", spec, _probe_task(spec))
        store.flush()
        cached = ColumnarStore(tmp_path).get("t", spec)
        assert cached == _probe_task(spec)
        assert isinstance(cached.data["rounds"], int)
        assert isinstance(cached.data["flag"], bool)
        assert isinstance(cached.data["pair"], tuple)
        assert isinstance(cached.data["third"], float)
        assert cached.data["nothing"] is None

    def test_compact_preserves_shard_line_bytes(self, tmp_path):
        """The headline upgrade guarantee: the compacted records
        re-serialize to the legacy shard files byte for byte."""
        source = ColumnarStore(tmp_path / "src")
        _fill(source, 7, task="a")
        _fill(source, 5, task="b", family="path")
        _legacy_store(tmp_path / "jsonl", source)
        original = _store_bytes(str(tmp_path / "jsonl" / "shards"))
        compacted = compact(tmp_path / "jsonl", tmp_path / "col",
                            flush_rows=5, verify=True)
        by_task = {}
        for record in compacted.records():
            by_task.setdefault(f"{record['task']}.jsonl", []).append(
                jsonl_line(record).encode())
        assert {name: b"".join(lines) for name, lines in by_task.items()} \
            == original

    def test_migration_preserves_content_addressed_keys(self, tmp_path):
        source = ColumnarStore(tmp_path / "src")
        specs = _fill(source, 4)
        _legacy_store(tmp_path / "jsonl", source)
        compact(tmp_path / "jsonl", tmp_path / "col").close()
        migrated = ColumnarStore(tmp_path / "col")
        for spec in specs:
            assert spec_key("t", spec) in migrated
        assert verify_migration(tmp_path / "jsonl", migrated) == 4

    def test_compaction_refuses_nonfresh_destination(self, tmp_path):
        source = ColumnarStore(tmp_path / "src")
        _fill(source, 2)
        _legacy_store(tmp_path / "jsonl", source)
        _fill(ColumnarStore(tmp_path / "col"), 1, task="other")
        with pytest.raises(ConfigurationError, match="fresh"):
            compact(tmp_path / "jsonl", tmp_path / "col")


class TestDtypeBoundaries:
    def test_int64_extremes_pack_and_round_trip(self, tmp_path):
        """Values at the exact int64 edges live in packed columns."""
        store = ColumnarStore(tmp_path / "col")
        spec = TrialSpec.of("cycle", 8, 0)
        result = TrialResult(spec, True,
                             {"hi": INT64_MAX, "lo": INT64_MIN})
        store.put("t", spec, result)
        store.flush()
        reloaded = ColumnarStore(tmp_path / "col")
        [record] = list(reloaded.records())
        assert record["data"] == {"hi": INT64_MAX, "lo": INT64_MIN}
        assert reloaded.get("t", spec) == result
        entry = reloaded._manifest["segments"][0]
        assert set(entry["metrics"]) == {"hi", "lo"}

    def test_beyond_int64_rides_the_sidecar_exactly(self, tmp_path):
        """2^63 would wrap in an int64 column; it must stay ragged."""
        store = ColumnarStore(tmp_path / "col")
        spec = TrialSpec.of("cycle", 8, 0)
        big = INT64_MAX + 1
        store.put("t", spec, TrialResult(spec, True,
                                         {"total_bits": big,
                                          "negative": INT64_MIN - 1}))
        store.flush()
        reloaded = ColumnarStore(tmp_path / "col")
        [record] = list(reloaded.records())
        assert record["data"]["total_bits"] == big
        assert record["data"]["negative"] == INT64_MIN - 1
        entry = reloaded._manifest["segments"][0]
        assert entry["metrics"] == {}
        assert sorted(entry["extras"]) == ["negative", "total_bits"]

    def test_mixed_int_float_field_stays_ragged(self, tmp_path):
        """A field that is int in one row and float in another cannot
        become a typed column without changing the values' types."""
        store = ColumnarStore(tmp_path / "col")
        for seed, value in ((0, 3), (1, 3.5)):
            spec = TrialSpec.of("cycle", 8, seed)
            store.put("t", spec, TrialResult(spec, True, {"cost": value}))
        store.flush()
        reloaded = ColumnarStore(tmp_path / "col")
        values = [r["data"]["cost"] for r in reloaded.records()]
        assert values == [3, 3.5]
        assert [type(v) for v in values] == [int, float]

    def test_overflowing_spec_n_is_refused(self, tmp_path):
        """Spec columns are unconditionally int64 — a spec beyond that
        range must be refused up front, not silently wrapped."""
        store = ColumnarStore(tmp_path / "col")
        spec = TrialSpec.of("cycle", INT64_MAX + 1, 0)
        with pytest.raises(ConfigurationError, match="int64"):
            store.put("t", spec, TrialResult(spec, True, {"rounds": 1}))


class TestEmptyAndSingle:
    def test_empty_store_round_trips(self, tmp_path):
        store = ColumnarStore(tmp_path / "col")
        assert len(store) == 0
        assert list(store.records()) == []
        assert store.select() == []
        assert store.aggregate() == []
        store.flush()  # no-op: no tail rows, no segment written
        assert ColumnarStore(tmp_path / "col")._manifest["segments"] == []

    def test_empty_migrations(self, tmp_path):
        assert _legacy_store(tmp_path / "jsonl") == []
        migrated = compact(tmp_path / "jsonl", tmp_path / "col", verify=True)
        assert len(migrated) == 0
        assert migrated._manifest["segments"] == []

    def test_single_trial_store(self, tmp_path):
        store = ColumnarStore(tmp_path / "col")
        [spec] = _fill(store, 1)
        store.flush()
        reloaded = ColumnarStore(tmp_path / "col")
        assert len(reloaded) == 1
        assert reloaded.get("t", spec) == _probe_task(spec)
        assert reloaded.select(family="cycle", seed=0) == [_probe_task(spec)]
        _legacy_store(tmp_path / "jsonl", reloaded)
        compact(tmp_path / "jsonl", tmp_path / "back", verify=True).close()

    def test_merge_of_empty_sources_is_a_noop(self, tmp_path):
        dest = ColumnarStore(tmp_path / "dest")
        _fill(dest, 2)
        dest.flush()
        before = list(dest.records())
        stats = merge_stores(dest, [ColumnarStore(tmp_path / "empty-col"),
                                    tmp_path / "empty-col"])
        assert stats == {"added": 0, "duplicate": 0}
        assert list(dest.records()) == before


class TestTornFlush:
    """The two crash windows of the flush commit protocol."""

    def _store_with_pending_tail(self, root, count=3):
        store = ColumnarStore(root, flush_rows=DEFAULT_FLUSH_ROWS)
        _fill(store, count)
        store.close()  # rows durable in the tail, nothing packed yet
        return count

    def test_stray_unlisted_segment_is_invisible(self, tmp_path):
        """Crash between segment rename and manifest write: the segment
        directory exists but the manifest does not list it, so every
        row is still (only) in the tail."""
        root = tmp_path / "col"
        count = self._store_with_pending_tail(root)
        pre = _store_bytes(str(root))
        flushed = ColumnarStore(root)
        flushed.flush()
        expected = list(ColumnarStore(root).records())
        # Rebuild the torn state: packed segment dir present, but
        # manifest and tail as they were before the flush.
        torn = tmp_path / "torn"
        shutil.copytree(root, torn)
        for relpath, payload in pre.items():
            with open(os.path.join(torn, relpath), "wb") as handle:
                handle.write(payload)
        recovered = ColumnarStore(torn)
        assert len(recovered) == count
        assert recovered._manifest["segments"] == []
        assert len(recovered._tail) == count
        # Re-flushing packs the tail, overwriting the stray directory.
        recovered.flush()
        assert list(ColumnarStore(torn).records()) == expected

    def test_listed_segment_with_untruncated_tail_deduplicates(self, tmp_path):
        """Crash between manifest write and tail truncate: every packed
        row is in both places; loading keeps exactly one copy."""
        root = tmp_path / "col"
        count = self._store_with_pending_tail(root)
        with open(root / TAIL_NAME, "rb") as handle:
            tail_before = handle.read()
        flushed = ColumnarStore(root)
        flushed.flush()
        expected = list(ColumnarStore(root).records())
        with open(root / TAIL_NAME, "wb") as handle:
            handle.write(tail_before)  # un-truncate: rows now duplicated
        recovered = ColumnarStore(root)
        assert len(recovered) == count
        assert recovered._tail == []
        assert list(recovered.records()) == expected

    def test_untruncated_tail_with_diverging_payload_is_corruption(
            self, tmp_path):
        """Same window, but a tail row disagreeing with its packed copy
        is not recovery — it must stop the load."""
        root = tmp_path / "col"
        store = ColumnarStore(root)
        [spec] = _fill(store, 1)
        store.flush()
        store.close()
        evil = dict(next(ColumnarStore(root).records()))
        evil["data"] = dict(evil["data"], rounds=999)
        with open(root / TAIL_NAME, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(evil, sort_keys=True) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            ColumnarStore(root)

    def test_torn_final_tail_line_is_tolerated(self, tmp_path):
        """A half-written last tail line (power loss mid-append) is
        skipped on load, exactly like the JSONL store's shards."""
        root = tmp_path / "col"
        count = self._store_with_pending_tail(root)
        with open(root / TAIL_NAME, "a", encoding="utf-8") as handle:
            handle.write('{"version": 1, "task": "t", "key": "dead')
        recovered = ColumnarStore(root)
        assert len(recovered) == count


class TestMergeRefusal:
    def _conflicting_pair(self, tmp_path, flushed):
        """Two stores agreeing on a key but not its payload; returns
        (dest, source, key, digest_a, digest_b). The source's copy sits
        in a packed segment (``flushed``) or in its tail."""
        spec = TrialSpec.of("cycle", 8, 0)
        key = spec_key("t", spec)
        a = ColumnarStore(tmp_path / "a")
        a.put("t", spec, TrialResult(spec, True, {"rounds": 1}))
        a.flush()
        b = ColumnarStore(tmp_path / "b")
        b.put("t", spec, TrialResult(spec, True, {"rounds": 2}))
        if flushed:
            b.flush()
        assert bool(b._segments) is flushed
        [record_a], [record_b] = list(a.records()), list(b.records())
        digest_a, digest_b = record_digest(record_a), record_digest(record_b)
        assert digest_a != digest_b
        return a, b, key, digest_a, digest_b

    @pytest.mark.parametrize("flushed", [True, False], ids=["segment", "tail"])
    def test_conflict_names_key_and_both_digests(self, tmp_path, flushed):
        """Regression: the refusal must identify the first conflicting
        key and the digest of both payloads, so two operators can tell
        whose store diverged without replaying anything."""
        dest, source, key, digest_a, digest_b = self._conflicting_pair(
            tmp_path, flushed)
        with pytest.raises(ConfigurationError) as exc:
            merge_stores(dest, [source])
        message = str(exc.value)
        assert key in message
        assert digest_a in message
        assert digest_b in message
        assert "disagree" in message

    def test_identical_records_merge_as_duplicates(self, tmp_path):
        spec = TrialSpec.of("cycle", 8, 0)
        for name in ("a", "b"):
            store = ColumnarStore(tmp_path / name)
            store.put("t", spec, _probe_task(spec))
            store.flush()
        dest = ColumnarStore(tmp_path / "a")
        stats = merge_stores(dest, [tmp_path / "b"])
        assert stats == {"added": 0, "duplicate": 1}
        assert len(dest) == 1

    def test_merged_stream_equals_source_stream(self, tmp_path):
        """Merging packed and tail-only halves yields exactly the
        sources' record streams, in source order, and re-merging the
        same sources reproduces the destination byte for byte."""
        specs = [TrialSpec.of("cycle", 8, seed) for seed in range(7)]
        packed = ColumnarStore(tmp_path / "packed", flush_rows=2)
        tail_only = ColumnarStore(tmp_path / "tail-only")
        for store, chunk in ((packed, specs[:5]), (tail_only, specs[5:])):
            for spec in chunk:
                store.put("t", spec, _probe_task(spec))
        assert packed._segments and not tail_only._segments
        expected = list(packed.records()) + list(tail_only.records())
        for name in ("merged", "again"):
            dest = ColumnarStore(tmp_path / name)
            stats = merge_stores(dest, [packed, tmp_path / "tail-only"])
            assert stats == {"added": len(specs), "duplicate": 0}
            assert list(dest.records()) == expected
            dest.close()
        assert _store_bytes(str(tmp_path / "merged")) == \
            _store_bytes(str(tmp_path / "again"))


class TestQueries:
    def _grid_store(self, tmp_path):
        store = ColumnarStore(tmp_path / "col", flush_rows=4)
        for family in ("cycle", "path"):
            for seed in range(4):
                spec = TrialSpec.of(family, 8, seed)
                store.put("grid", spec, _probe_task(spec))
        store.flush()
        return ColumnarStore(tmp_path / "col", flush_rows=4)

    def test_select_filters_and_preserves_order(self, tmp_path):
        store = self._grid_store(tmp_path)
        hits = store.select(family="path")
        assert [r.spec.seed for r in hits] == [0, 1, 2, 3]
        assert all(r.spec.family == "path" for r in hits)
        assert store.select(family="path", seed=2) == \
            [_probe_task(TrialSpec.of("path", 8, 2))]
        assert store.select(family="no-such-family") == []

    def test_select_touches_only_filter_columns(self, tmp_path):
        """The laziness claim: a miss never loads metric columns, and a
        seed filter never loads the family column."""
        store = self._grid_store(tmp_path)
        [segment] = store._segments[:1]
        assert segment.loaded_columns() == ["key.npy"]  # index build only
        store.select(family="path", n=999)
        assert segment.loaded_columns() == ["family.npy", "key.npy", "n.npy"]

    def test_aggregate_matches_jsonl_path_exactly(self, tmp_path):
        store = self._grid_store(tmp_path)
        for kwargs in ({}, {"by": ("family", "seed")},
                       {"family": "cycle"}, {"seed": 1}):
            by = kwargs.pop("by", ("family", "n"))
            assert store.aggregate(by=by, **kwargs) == \
                aggregate(store.select(**kwargs), by=by)

    def test_select_equals_brute_force_filter(self, tmp_path):
        store = self._grid_store(tmp_path)
        extra = TrialSpec.of("path", 16, 1)
        store.put("other", extra, _probe_task(extra))  # a tail row
        records = list(store.records())
        for kwargs in ({}, {"family": "cycle"}, {"seed": 3}, {"n": 8},
                       {"task": "other"}, {"family": "path", "seed": 1},
                       {"n": 99}):
            expected = [
                result_of_record(r) for r in records
                if all((r["task"] if field == "task" else r["spec"][field])
                       == value for field, value in kwargs.items())
            ]
            assert store.select(**kwargs) == expected


class TestOpenStore:
    def test_contradicting_format_raises(self, tmp_path):
        """Opening a legacy JSONL-shard store live would 'work' while
        computing everything cold — it must refuse instead, naming the
        upgrade, and leave the directory untouched."""
        source = ColumnarStore(tmp_path / "src")
        _fill(source, 2)
        _legacy_store(tmp_path / "jl", source)
        before = _store_bytes(str(tmp_path / "jl"))
        with pytest.raises(ConfigurationError, match="--compact"):
            ColumnarStore(tmp_path / "jl")
        assert _store_bytes(str(tmp_path / "jl")) == before
        assert sorted(os.listdir(tmp_path / "jl")) == ["index.json", "shards"]
        # Once upgraded, the destination opens normally.
        compact(tmp_path / "jl", tmp_path / "col").close()
        assert len(ColumnarStore(tmp_path / "col")) == 2


class TestRunTrialsIntegration:
    def test_sweep_then_replay_is_fully_cached(self, tmp_path):
        specs = [TrialSpec.of("cycle", 8, seed) for seed in range(5)]
        store = ColumnarStore(tmp_path / "col")
        first = run_trials(_probe_task, specs, workers=1, store=store,
                           task_name="t")
        store.close()
        # run_trials flushes at sweep end: rows are packed, tail empty.
        reloaded = ColumnarStore(tmp_path / "col")
        assert reloaded._tail == []
        assert len(reloaded) == len(specs)
        replay = run_trials(_poison_task, specs, workers=1, store=reloaded,
                            task_name="t")
        assert replay == first

    def test_mid_sweep_resume_matches_uninterrupted(self, tmp_path):
        specs = [TrialSpec.of("cycle", 8, seed) for seed in range(6)]
        full = run_trials(_probe_task, specs, workers=1,
                          store=ColumnarStore(tmp_path / "full"),
                          task_name="t")
        partial = ColumnarStore(tmp_path / "partial")
        run_trials(_probe_task, specs[:3], workers=1, store=partial,
                   task_name="t")
        resumed = run_trials(_probe_task, specs, workers=1,
                             store=ColumnarStore(tmp_path / "partial"),
                             task_name="t")
        assert resumed == full
        assert list(ColumnarStore(tmp_path / "partial").records()) == \
            list(ColumnarStore(tmp_path / "full").records())
