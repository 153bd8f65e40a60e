"""Deterministic fault injection: plans, flaky wrappers, chaos sweeps.

The contract under test: every fault is a pure function of (seed,
scope, label, counter) — two runs of the same plan see identical
weather — and the production retry/quarantine machinery absorbs all of
it, ending in a merged store byte-identical to a fault-free run.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    ColumnarStore,
    CoordinatorUnavailable,
    DirTransport,
    FaultPlan,
    FlakyControl,
    FlakyTransport,
    PushIntegrityError,
    ReadThroughStore,
    RetryPolicy,
    RetryableError,
    SweepCoordinator,
    WorkUnit,
    flood_min_trial,
    grid,
    merge_pushed,
    run_trials,
    run_worker,
)

FLOOD_TASK_NAME = "repro.sim.batch.tasks.flood_min_trial"


class _SleepRecorder:
    def __init__(self) -> None:
        self.calls: list = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)


def _units(count: int) -> list:
    return [WorkUnit.of(i, "s", i, count, quick=True) for i in range(count)]


def _store_bytes(root: str) -> dict:
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class TestFaultPlan:
    def test_schedule_is_a_pure_function_of_its_labels(self):
        first = FaultPlan(7, scope="w1", drop=0.2, error=0.2)
        second = FaultPlan(7, scope="w1", drop=0.2, error=0.2)
        sequence = [first.decide("lease") for _ in range(32)]
        assert sequence == [second.decide("lease") for _ in range(32)]
        assert sequence == first.preview("lease", 32)  # preview = replay
        # preview never advances the live counter.
        assert first.preview("renew", 4) == [
            first.decide("renew") for _ in range(4)
        ]

    def test_scope_and_label_decorrelate_schedules(self):
        base = FaultPlan(7, scope="w1", drop=0.3, delay=0.3)
        other_scope = FaultPlan(7, scope="w2", drop=0.3, delay=0.3)
        assert base.preview("lease", 64) != other_scope.preview("lease", 64)
        assert base.preview("lease", 64) != base.preview("renew", 64)

    def test_rates_are_respected_in_the_long_run(self):
        plan = FaultPlan(3, drop=0.25)
        decisions = plan.preview("push", 4000)
        dropped = sum(1 for kind in decisions if kind == "drop")
        assert 0.2 < dropped / 4000 < 0.3
        assert set(decisions) <= {None, "drop"}

    def test_zero_rate_kinds_never_fire(self):
        plan = FaultPlan(3, drop=0.0, error=1.0)
        assert set(plan.preview("x", 64)) == {"error"}

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="in \\[0, 1\\]"):
            FaultPlan(1, drop=1.5)
        with pytest.raises(ConfigurationError, match="exceeds 1"):
            FaultPlan(1, drop=0.6, error=0.6)
        with pytest.raises(ConfigurationError, match="delay_seconds"):
            FaultPlan(1, delay_seconds=-1)


class TestFlakyControl:
    def _coordinator(self) -> SweepCoordinator:
        return SweepCoordinator(_units(2), lease_ttl=30)

    def test_drop_raises_without_touching_the_coordinator(self):
        coordinator = self._coordinator()
        flaky = FlakyControl(coordinator, FaultPlan(1, drop=1.0))
        with pytest.raises(CoordinatorUnavailable, match="injected fault"):
            flaky.lease("w")
        assert coordinator.status()["leased"] == 0

    def test_error_is_a_retryable_503(self):
        coordinator = self._coordinator()
        flaky = FlakyControl(coordinator, FaultPlan(1, error=1.0))
        with pytest.raises(RetryableError, match="503"):
            flaky.complete("w", 0)
        assert coordinator.status()["completed"] == 0

    def test_delay_stalls_then_performs_the_call(self):
        recorder = _SleepRecorder()
        coordinator = self._coordinator()
        flaky = FlakyControl(
            coordinator,
            FaultPlan(1, delay=1.0, delay_seconds=0.05),
            sleep=recorder,
        )
        assert flaky.lease("w").unit.unit_id == 0
        assert recorder.calls == [0.05]
        assert coordinator.status()["leased"] == 1

    def test_duplicate_exercises_idempotency_and_returns_the_first(self):
        coordinator = self._coordinator()
        flaky = FlakyControl(coordinator, FaultPlan(1, duplicate=1.0))
        coordinator.lease("w")
        # The duplicated complete lands twice; callers see the first
        # verdict, and the second is absorbed as "duplicate".
        assert flaky.complete("w", 0) == "completed"
        assert coordinator.status()["completed"] == 1
        coordinator.lease("w")
        assert flaky.fail("w", 1, "x") == "requeued"
        assert coordinator.status()["pending"] == 1

    def test_lease_is_never_duplicated(self):
        """Duplicating a lease would strand a second unit until TTL
        expiry; the plan's duplicate decision downgrades to a delay."""
        recorder = _SleepRecorder()
        coordinator = self._coordinator()
        flaky = FlakyControl(
            coordinator, FaultPlan(1, duplicate=1.0), sleep=recorder
        )
        reply = flaky.lease("w")
        assert reply.unit.unit_id == 0
        assert coordinator.status()["leased"] == 1  # not 2
        assert len(recorder.calls) == 1


class TestFlakyTransport:
    def _source(self, tmp_path) -> str:
        specs = grid(["cycle"], [12], range(2), radius=12)
        store = ColumnarStore(tmp_path / "src")
        run_trials(flood_min_trial, specs, store=store)
        store.close()
        return str(tmp_path / "src")

    def test_truncated_push_is_rejected_by_the_digest_check(self, tmp_path):
        source = self._source(tmp_path)
        staging = str(tmp_path / "staging")
        flaky = FlakyTransport(
            DirTransport(staging), FaultPlan(1, truncate=1.0)
        )
        with pytest.raises(PushIntegrityError, match="corrupt"):
            flaky.push(source, "u0-a1-w")
        assert os.listdir(staging) == []  # nothing staged

    def test_retried_push_converges(self, tmp_path):
        """truncate-then-clean: exactly what RetryPolicy sees in anger."""
        source = self._source(tmp_path)
        staging = str(tmp_path / "staging")
        plan = FaultPlan(1, truncate=0.5)
        decisions = plan.preview("push", 8)
        assert "truncate" in decisions and None in decisions
        flaky = FlakyTransport(DirTransport(staging), plan)
        policy = RetryPolicy(attempts=8, base_delay=0.0, sleep=lambda s: None)
        policy.call(lambda: flaky.push(source, "u0-a1-w"), label="push")
        clean = DirTransport(str(tmp_path / "clean"))
        clean.push(source, "u0-a1-w")
        assert _store_bytes(
            os.path.join(staging, "u0-a1-w")
        ) == _store_bytes(os.path.join(str(tmp_path / "clean"), "u0-a1-w"))

    def test_drop_and_error_do_not_deliver(self, tmp_path):
        source = self._source(tmp_path)
        staging = str(tmp_path / "staging")
        dropper = FlakyTransport(DirTransport(staging), FaultPlan(1, drop=1.0))
        with pytest.raises(CoordinatorUnavailable):
            dropper.push(source, "a")
        erroring = FlakyTransport(
            DirTransport(staging), FaultPlan(1, error=1.0)
        )
        with pytest.raises(RetryableError, match="503"):
            erroring.push(source, "b")
        assert os.listdir(staging) == []

    def test_duplicate_push_is_idempotent(self, tmp_path):
        source = self._source(tmp_path)
        staging = str(tmp_path / "staging")
        flaky = FlakyTransport(
            DirTransport(staging), FaultPlan(1, duplicate=1.0)
        )
        flaky.push(source, "u0-a1-w")
        assert os.listdir(staging) == ["u0-a1-w"]


class TestChaosSweepEndToEnd:
    """The capstone in miniature: a full in-process sweep under an
    aggressive fault plan plus one poison unit, byte-identical."""

    def test_chaotic_sweep_is_byte_identical_with_poison_quarantined(
        self, tmp_path
    ):
        specs = grid(["cycle", "path"], [12], range(3), radius=12)
        single = ColumnarStore(tmp_path / "single")
        run_trials(flood_min_trial, specs, store=single)
        single.close()

        units = [WorkUnit.of(i, "flood", i, 4) for i in range(4)]
        coordinator = SweepCoordinator(units, lease_ttl=30, max_attempts=2)
        staging_root = str(tmp_path / "staging")
        poisoned = 2

        def execute(unit, store, renew):
            if unit.unit_id == poisoned:
                raise RuntimeError("chaos: poisoned unit")
            run_trials(
                flood_min_trial,
                specs,
                store=store,
                shard=(unit.index, unit.count),
                progress=renew,
            )

        worker_stats = {}
        for worker_id in ("w1", "w2"):
            control = FlakyControl(
                coordinator,
                FaultPlan(
                    11,
                    scope=f"control:{worker_id}",
                    drop=0.1,
                    delay=0.1,
                    duplicate=0.1,
                    error=0.1,
                    delay_seconds=0.0,
                ),
                sleep=lambda s: None,
            )
            transport = FlakyTransport(
                DirTransport(staging_root),
                FaultPlan(
                    11,
                    scope=f"push:{worker_id}",
                    drop=0.1,
                    delay=0.1,
                    duplicate=0.1,
                    error=0.1,
                    truncate=0.3,
                    delay_seconds=0.0,
                ),
                sleep=lambda s: None,
            )
            worker_stats[worker_id] = run_worker(
                control,
                execute,
                transport,
                str(tmp_path / f"scratch-{worker_id}"),
                worker_id=worker_id,
                sleep=lambda s: None,
                retry=RetryPolicy(
                    attempts=10,
                    base_delay=0.0,
                    seed=worker_id,
                    sleep=lambda s: None,
                ),
            )

        status = coordinator.status()
        assert status["done"]
        assert status["completed"] == 3
        assert status["quarantined"] == 1
        entry = status["quarantine"][str(poisoned)]
        assert entry["attempts"] == 2  # exactly --max-attempts
        assert "poisoned" in entry["error"]
        total_failed = sum(s["failed"] for s in worker_stats.values())
        assert total_failed == 2  # one /fail per burned attempt
        # Chaos actually happened: the fleet had to retry something.
        assert sum(s["retries"] for s in worker_stats.values()) > 0

        # Merge + backfill + repack exactly as run_coordinator_mode
        # does: the quarantined unit's slice is computed locally into
        # the staging layer first, then the replay repacks from a full
        # cache — byte-identical to the single-host store.
        staging = ColumnarStore(tmp_path / "merged-staging")
        merge_pushed(staging_root, staging)
        run_trials(
            flood_min_trial, specs, store=staging, shard=(poisoned, 4)
        )
        final = ColumnarStore(tmp_path / "final")
        layered = ReadThroughStore(final, staging)
        replay = run_trials(flood_min_trial, specs, store=layered)
        assert replay == run_trials(flood_min_trial, specs)
        final.close()
        assert _store_bytes(str(tmp_path / "final")) == _store_bytes(
            str(tmp_path / "single")
        )
