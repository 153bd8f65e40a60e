"""The sweep coordinator: leases, transports, and byte-identical merges.

The load-bearing guarantees, each pinned here without subprocesses:

* a lease that expires (worker death) is re-leased exactly once, to the
  next worker that asks — never handed out twice concurrently;
* duplicate results from a late (expired-then-completed) worker dedupe
  under the store's identical-record merge rule;
* a coordinated run — any worker mix, any push order, either
  transport — merges and repacks to a store byte-identical to the
  single-host run (``scripts_coordinated_smoke.py`` re-proves this
  with real SIGKILLed subprocesses in CI).
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    AuthenticationError,
    ColumnarStore,
    CoordinatorClient,
    CoordinatorServer,
    CoordinatorUnavailable,
    DirTransport,
    HTTPTransport,
    LeaseReply,
    PushIntegrityError,
    ReadThroughStore,
    RetryPolicy,
    RetryableError,
    SweepCoordinator,
    Transport,
    TrialResult,
    TrialSpec,
    WorkUnit,
    deterministic_uniform,
    flood_min_trial,
    grid,
    merge_pushed,
    merge_stores,
    pushed_store_dirs,
    run_trials,
    run_worker,
    wait_until_done,
)
from repro.sim.batch.colstore import TAIL_NAME
from repro.sim.batch.distrib import (
    JOURNAL_NAME,
    verify_pushed_files,
    write_pushed_store,
)
from repro.sim.batch.store import file_digest, read_jsonl

FLOOD_TASK_NAME = "repro.sim.batch.tasks.flood_min_trial"


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _units(count: int, sweep: str = "s") -> list:
    return [WorkUnit.of(i, sweep, i, count, quick=True) for i in range(count)]


def _probe_task(spec: TrialSpec) -> TrialResult:
    return TrialResult(spec, True, {"value": spec.seed * 3, "family": spec.family})


def _poison_task(spec: TrialSpec) -> TrialResult:
    raise AssertionError(f"task executed for {spec} despite a full cache")


def _store_bytes(root: str) -> dict:
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class TestWorkUnit:
    def test_payload_is_canonicalized(self):
        direct = WorkUnit(0, "s", 0, 2, (("zeta", 1), ("alpha", 2)))
        via_of = WorkUnit.of(0, "s", 0, 2, zeta=1, alpha=2)
        assert direct == via_of
        assert direct.payload == (("alpha", 2), ("zeta", 1))
        assert direct.param("zeta") == 1
        assert direct.param("missing", "d") == "d"

    def test_json_round_trip(self):
        unit = WorkUnit.of(3, "e06", 1, 4, quick=True, seed=7)
        assert WorkUnit.from_json(unit.to_json()) == unit


class TestLeases:
    def test_lease_hands_out_lowest_pending(self):
        coordinator = SweepCoordinator(_units(3), lease_ttl=10, clock=FakeClock())
        first = coordinator.lease("a")
        second = coordinator.lease("b")
        assert first.unit.unit_id == 0 and first.attempt == 1
        assert second.unit.unit_id == 1
        assert not first.done

    def test_all_leased_reports_busy_not_done(self):
        coordinator = SweepCoordinator(_units(1), lease_ttl=10, clock=FakeClock())
        coordinator.lease("a")
        reply = coordinator.lease("b")
        assert reply.unit is None and not reply.done

    def test_expired_lease_is_reassigned_exactly_once(self):
        """Worker death: the unit goes to ONE next worker, nobody else."""
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(2), lease_ttl=5, clock=clock)
        assert coordinator.lease("dying").unit.unit_id == 0
        clock.advance(5.1)
        retaken = coordinator.lease("healthy")
        assert retaken.unit.unit_id == 0 and retaken.attempt == 2
        assert coordinator.reassigned == 1
        # The re-leased unit is held again: a third worker gets unit 1,
        # and a fourth gets nothing.
        assert coordinator.lease("third").unit.unit_id == 1
        assert coordinator.lease("fourth").unit is None

    def test_renew_extends_the_deadline(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        coordinator.lease("a")
        clock.advance(4)
        assert coordinator.renew("a", 0)
        clock.advance(4)  # 8s total: dead without the renewal at t=4
        assert coordinator.complete("a", 0) == "completed"
        assert coordinator.reassigned == 0

    def test_renew_fails_after_expiry_or_for_wrong_worker(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        coordinator.lease("a")
        assert not coordinator.renew("b", 0)
        clock.advance(5.1)
        assert not coordinator.renew("a", 0)

    def test_late_completion_is_accepted_and_counted(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        coordinator.lease("slow")
        clock.advance(5.1)
        assert coordinator.complete("slow", 0) == "late"
        assert coordinator.late == 1 and coordinator.done

    def test_completion_after_reassignment_deduplicates(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        coordinator.lease("slow")
        clock.advance(5.1)
        coordinator.lease("fast")
        assert coordinator.complete("fast", 0) == "completed"
        assert coordinator.complete("slow", 0) == "duplicate"
        assert coordinator.done

    def test_release_requeues_immediately(self):
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=FakeClock())
        coordinator.lease("a")
        assert coordinator.release("a", 0)
        assert coordinator.lease("b").unit.unit_id == 0
        assert coordinator.reassigned == 0

    def test_done_and_status(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(2), lease_ttl=5, clock=clock)
        coordinator.lease("a")
        coordinator.complete("a", 0)
        status = coordinator.status()
        assert status["completed"] == 1 and status["pending"] == 1
        assert not status["done"] and not coordinator.done
        coordinator.lease("a")
        coordinator.complete("a", 1)
        assert coordinator.done
        reply = coordinator.lease("a")
        assert reply.unit is None and reply.done

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            SweepCoordinator([])
        with pytest.raises(ConfigurationError, match="lease_ttl"):
            SweepCoordinator(_units(1), lease_ttl=0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepCoordinator([WorkUnit.of(0, "s", 0, 2), WorkUnit.of(0, "s", 1, 2)])

    def test_complete_unknown_unit_raises(self):
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=FakeClock())
        with pytest.raises(ConfigurationError, match="unknown unit"):
            coordinator.complete("a", 99)

    def test_never_leased_completion_is_rejected(self):
        """Regression: a mis-addressed worker could mark a unit done with
        no payload in staging, and wait_until_done returned data-short."""
        coordinator = SweepCoordinator(_units(2), lease_ttl=5, clock=FakeClock())
        with pytest.raises(ConfigurationError, match="never leased"):
            coordinator.complete("stray", 1)
        status = coordinator.status()
        assert status["pending"] == 2 and status["completed"] == 0
        assert not coordinator.done

    def test_status_breaks_down_per_sweep(self):
        units = [
            WorkUnit.of(0, "e06", 0, 2),
            WorkUnit.of(1, "e06", 1, 2),
            WorkUnit.of(2, "e08", 0, 1),
        ]
        coordinator = SweepCoordinator(units, lease_ttl=5, clock=FakeClock())
        coordinator.lease("a")
        coordinator.complete("a", 0)
        coordinator.lease("b")
        assert coordinator.status()["sweeps"] == {
            "e06": {
                "total": 2,
                "pending": 0,
                "leased": 1,
                "completed": 1,
                "quarantined": 0,
            },
            "e08": {
                "total": 1,
                "pending": 1,
                "leased": 0,
                "completed": 0,
                "quarantined": 0,
            },
        }

    def test_wait_until_done_times_out_loudly(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        with pytest.raises(ConfigurationError, match="did not complete"):
            wait_until_done(
                coordinator, poll=1, sleep=clock.advance, timeout=3, clock=clock
            )


class TestJournal:
    """The write-ahead journal: every transition survives a crash."""

    def _scripted(self, tmp_path):
        """Drive every transition kind, ending with one live lease."""
        clock = FakeClock()
        journal = str(tmp_path / JOURNAL_NAME)
        units = _units(3)
        coordinator = SweepCoordinator(
            units, lease_ttl=5, clock=clock, journal_path=journal
        )
        assert coordinator.lease("a").unit.unit_id == 0
        assert coordinator.lease("b").unit.unit_id == 1
        assert coordinator.renew("a", 0)
        assert coordinator.complete("a", 0) == "completed"
        assert coordinator.release("b", 1)
        assert coordinator.lease("c").unit.unit_id == 1
        clock.advance(5.1)
        assert coordinator.expire() == [1]
        assert coordinator.lease("d").unit.unit_id == 1
        assert coordinator.complete("c", 1) == "late"
        assert coordinator.complete("d", 1) == "duplicate"
        assert coordinator.lease("e").unit.unit_id == 2
        coordinator.close()
        return units, journal, coordinator

    def test_journal_records_every_transition(self, tmp_path):
        _units_, journal, _ = self._scripted(tmp_path)
        events = [(e["event"], e["unit"]) for e in read_jsonl(journal)]
        assert events == [
            ("lease", 0),
            ("lease", 1),
            ("renew", 0),
            ("complete", 0),
            ("release", 1),
            ("lease", 1),
            ("expire", 1),
            ("lease", 1),
            ("complete", 1),
            ("lease", 2),
        ]  # the duplicate completion changed nothing and is absent

    def test_recover_restores_state_and_requeues_live_leases(self, tmp_path):
        units, journal, original = self._scripted(tmp_path)
        recovered = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        status = recovered.status()
        assert status["completed"] == 2 and status["pending"] == 1
        assert status["leased"] == 0  # unit 2's live lease was requeued
        assert recovered.late == 1
        assert recovered.reassigned == original.reassigned + 1
        assert recovered._attempts == {0: 1, 1: 3, 2: 1}
        # The requeued unit is re-leasable, attempt count intact.
        reply = recovered.lease("w")
        assert reply.unit.unit_id == 2 and reply.attempt == 2
        recovered.close()

    def test_second_recovery_agrees_with_first(self, tmp_path):
        """Recovery itself journals its requeues, so it is replayable."""
        units, journal, _ = self._scripted(tmp_path)
        first = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        first.close()
        second = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        assert second.status() == first.status()
        assert second._attempts == first._attempts

    def test_recover_at_every_journal_prefix(self, tmp_path):
        """A crash can land between any two appends; every prefix recovers
        with exactly the journaled completions and nothing leased."""
        units, journal, _ = self._scripted(tmp_path)
        with open(journal, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for cut in range(len(lines) + 1):
            prefix_path = str(tmp_path / f"prefix-{cut}.jsonl")
            with open(prefix_path, "w", encoding="utf-8") as handle:
                handle.writelines(lines[:cut])
            recovered = SweepCoordinator.recover(
                units, prefix_path, lease_ttl=5, clock=FakeClock()
            )
            completions = sum(
                1 for e in read_jsonl(prefix_path) if e["event"] == "complete"
            )
            status = recovered.status()
            assert status["completed"] == completions
            assert status["leased"] == 0
            assert status["pending"] == 3 - completions
            recovered.close()

    def test_recover_tolerates_a_torn_trailing_line(self, tmp_path):
        units, journal, _ = self._scripted(tmp_path)
        first = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        first.close()
        reference = first.status()
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event":"complete","unit":2,"wor')  # crash mid-append
        torn = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        assert torn.status() == reference
        # A post-recovery transition heals the tail: still replayable.
        torn.lease("w")
        torn.close()
        healed = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        assert healed.status()["completed"] == 2
        healed.close()

    def test_recover_tolerates_duplicate_and_stale_entries(self, tmp_path):
        journal = str(tmp_path / "dup.jsonl")
        events = [
            {"event": "lease", "unit": 0, "worker": "a", "attempt": 1},
            {"event": "complete", "unit": 0, "worker": "a", "verdict": "late"},
            {"event": "complete", "unit": 0, "worker": "a", "verdict": "late"},
            {"event": "expire", "unit": 0},
            {"event": "release", "unit": 0, "worker": "a"},
            {"event": "heartbeat", "detail": "future record kinds are skipped"},
        ]
        with open(journal, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        recovered = SweepCoordinator.recover(
            _units(1), journal, lease_ttl=5, clock=FakeClock()
        )
        assert recovered.late == 1  # counted once despite the duplicate line
        assert recovered.reassigned == 0  # expire/release after completion no-op
        assert recovered.done

    def test_recover_rejects_a_foreign_journal(self, tmp_path):
        journal = str(tmp_path / "foreign.jsonl")
        with open(journal, "w", encoding="utf-8") as handle:
            handle.write('{"event":"lease","unit":7,"worker":"a","attempt":1}\n')
        with pytest.raises(ConfigurationError, match="unknown unit"):
            SweepCoordinator.recover(_units(2), journal)

    def test_recovered_coordinator_keeps_journaling(self, tmp_path):
        units, journal, _ = self._scripted(tmp_path)
        recovered = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        recovered.lease("w")
        assert recovered.complete("w", 2) == "completed"
        recovered.close()
        final = SweepCoordinator.recover(
            units, journal, lease_ttl=5, clock=FakeClock()
        )
        assert final.done
        final.close()


class TestTransports:
    def _populated_store(self, root) -> ColumnarStore:
        store = ColumnarStore(root)
        for seed in range(3):
            spec = TrialSpec.of("cycle", 12, seed)
            store.put("t", spec, _probe_task(spec))
        return store

    def test_dir_transport_round_trips_a_store(self, tmp_path):
        source = self._populated_store(tmp_path / "src")
        source.close()
        transport = DirTransport(str(tmp_path / "staging"))
        transport.push(str(tmp_path / "src"), "u0-a1-w")
        (pushed,) = pushed_store_dirs(str(tmp_path / "staging"))
        merged = ColumnarStore(tmp_path / "merged")
        assert merge_stores(merged, [pushed]) == {"added": 3, "duplicate": 0}
        spec = TrialSpec.of("cycle", 12, 1)
        assert merged.get("t", spec) == _probe_task(spec)

    def test_push_ships_records_as_one_tail_file(self, tmp_path):
        """The payload is the store's records as the exact JSON lines
        its ingest tail would hold, packed segments included, and the
        staged copy opens as a tail-only store with the same stream."""
        source = self._populated_store(tmp_path / "src")
        source.flush()
        spec = TrialSpec.of("path", 12, 9)
        source.put("t", spec, _probe_task(spec))  # one row left in the tail
        expected = list(source.records())
        source.close()
        DirTransport(str(tmp_path / "staging")).push(str(tmp_path / "src"), "p")
        (pushed,) = pushed_store_dirs(str(tmp_path / "staging"))
        assert os.listdir(pushed) == [TAIL_NAME]
        with open(os.path.join(pushed, TAIL_NAME), encoding="utf-8") as handle:
            assert handle.read() == "".join(
                json.dumps(r, separators=(",", ":")) + "\n" for r in expected
            )
        staged = ColumnarStore(pushed)
        assert not staged._segments
        assert list(staged.records()) == expected

    def test_merge_pushed_refuses_a_legacy_push(self, tmp_path):
        """A JSONL-shard push from an older build is listed, then refused
        loudly at merge time instead of silently contributing nothing."""
        staging = tmp_path / "staging"
        write_pushed_store(str(staging), "old", {"shards/t.jsonl": "{}\n"})
        assert pushed_store_dirs(str(staging)) == [str(staging / "old")]
        with pytest.raises(ConfigurationError, match="--compact"):
            merge_pushed(str(staging), ColumnarStore(tmp_path / "dest"))

    def test_duplicate_push_keeps_the_first_copy(self, tmp_path):
        self._populated_store(tmp_path / "src").close()
        transport = DirTransport(str(tmp_path / "staging"))
        first = transport.push(str(tmp_path / "src"), "name")
        second = transport.push(str(tmp_path / "src"), "name")
        assert first == second
        assert len(pushed_store_dirs(str(tmp_path / "staging"))) == 1

    def test_staging_listing_skips_bookkeeping_dirs(self, tmp_path):
        staging = tmp_path / "staging"
        self._populated_store(staging / "_merged").close()
        self._populated_store(staging / "good").close()
        os.makedirs(staging / "not-a-store")
        assert pushed_store_dirs(str(staging)) == [str(staging / "good")]

    def test_pushed_names_cannot_collide_with_bookkeeping(self, tmp_path):
        dest = write_pushed_store(str(tmp_path), "_merged", {"tail.jsonl": ""})
        assert os.path.basename(dest) == "p_merged"

    def test_push_rejects_path_escapes(self, tmp_path):
        with pytest.raises(ConfigurationError, match="illegal path"):
            write_pushed_store(str(tmp_path), "evil", {"../escape": "x"})

    def test_merge_pushed_with_empty_staging_is_a_noop(self, tmp_path):
        dest = ColumnarStore(tmp_path / "dest")
        stats = merge_pushed(str(tmp_path / "missing"), dest)
        assert stats == {"added": 0, "duplicate": 0} and len(dest) == 0


class TestReadThroughStore:
    def test_fallback_hits_are_copied_forward(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        fallback = ColumnarStore(tmp_path / "fallback")
        fallback.put("t", spec, _probe_task(spec))
        primary = ColumnarStore(tmp_path / "primary")
        layered = ReadThroughStore(primary, fallback)
        assert layered.get("t", spec) == _probe_task(spec)
        assert primary.get("t", spec) == _probe_task(spec)
        assert len(layered) == 1

    def test_misses_stay_misses_and_puts_go_to_primary(self, tmp_path):
        spec = TrialSpec.of("cycle", 12, 3)
        fallback = ColumnarStore(tmp_path / "fallback")
        primary = ColumnarStore(tmp_path / "primary")
        layered = ReadThroughStore(primary, fallback)
        assert layered.get("t", spec) is None
        layered.put("t", spec, _probe_task(spec))
        assert primary.get("t", spec) == _probe_task(spec)
        assert fallback.get("t", spec) is None

    def test_repack_is_byte_identical_to_single_host(self, tmp_path):
        """Merge order scrambles record order; the repack restores it."""
        specs = grid(["cycle", "path"], [12], range(4), radius=12)
        single = ColumnarStore(tmp_path / "single")
        cold = run_trials(flood_min_trial, specs, store=single)
        single.close()

        host0 = ColumnarStore(tmp_path / "host0")
        host1 = ColumnarStore(tmp_path / "host1")
        run_trials(flood_min_trial, specs, store=host0, shard=(0, 2))
        run_trials(flood_min_trial, specs, store=host1, shard=(1, 2))
        staging = ColumnarStore(tmp_path / "staging")
        merge_stores(staging, [host1, host0])  # deliberately reversed
        single_bytes = _store_bytes(str(tmp_path / "single"))
        assert _store_bytes(str(tmp_path / "staging")) != single_bytes

        final = ColumnarStore(tmp_path / "final")
        layered = ReadThroughStore(final, staging)
        replay = run_trials(
            _poison_task, specs, store=layered, task_name=FLOOD_TASK_NAME
        )
        assert replay == cold
        final.close()
        assert _store_bytes(str(tmp_path / "final")) == single_bytes


class TestHTTPControlPlane:
    def test_client_speaks_every_verb(self, tmp_path):
        units = _units(2)
        coordinator = SweepCoordinator(units, lease_ttl=30)
        with CoordinatorServer(coordinator, str(tmp_path / "staging")) as server:
            client = CoordinatorClient(server.url)
            reply = client.lease("w")
            assert reply.unit == units[0] and reply.attempt == 1
            assert client.renew("w", 0)
            assert not client.renew("other", 0)
            assert client.complete("w", 0) == "completed"
            assert client.release("w", 1) is False
            status = client.status()
            assert status["completed"] == 1 and status["total"] == 2
            second = client.lease("w")
            assert client.complete("w", second.unit.unit_id) == "completed"
            assert client.lease("w").done

    def test_http_transport_push_lands_in_staging(self, tmp_path):
        source = ColumnarStore(tmp_path / "src")
        spec = TrialSpec.of("cycle", 12, 3)
        source.put("t", spec, _probe_task(spec))
        source.close()
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        staging = str(tmp_path / "staging")
        with CoordinatorServer(coordinator, staging) as server:
            HTTPTransport(server.url).push(str(tmp_path / "src"), "u0-a1-w")
        (pushed,) = pushed_store_dirs(staging)
        assert ColumnarStore(pushed).get("t", spec) == _probe_task(spec)

    def test_bad_requests_surface_as_configuration_errors(self, tmp_path):
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        with CoordinatorServer(coordinator, str(tmp_path / "staging")) as server:
            client = CoordinatorClient(server.url)
            with pytest.raises(ConfigurationError, match="unknown unit"):
                client.complete("w", 99)
            with pytest.raises(ConfigurationError, match="rejected"):
                CoordinatorClient(server.url + "/nope").lease("w")

    def test_unreachable_coordinator_is_distinguishable(self):
        client = CoordinatorClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(CoordinatorUnavailable):
            client.lease("w")

    def test_wildcard_bind_gets_a_dialable_url(self, tmp_path):
        """Regression: 0.0.0.0 listens everywhere but dials nowhere —
        the printed worker join URL must carry a reachable host."""
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        server = CoordinatorServer(
            coordinator, str(tmp_path / "staging"), host="0.0.0.0"
        )
        with server:
            assert "0.0.0.0" not in server.url
            host = server.url[len("http://"):].rsplit(":", 1)[0]
            assert host  # hostname/FQDN substituted for the wildcard

    def test_loopback_bind_url_is_unchanged(self, tmp_path):
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        with CoordinatorServer(coordinator, str(tmp_path / "staging")) as server:
            assert server.url.startswith("http://127.0.0.1:")


class TestControlPlaneAuth:
    """The shared-token gate: 401 on bad tokens, no state change ever."""

    TOKEN = "s3cret"

    def _server(self, tmp_path):
        coordinator = SweepCoordinator(_units(2), lease_ttl=30)
        server = CoordinatorServer(
            coordinator, str(tmp_path / "staging"), auth_token=self.TOKEN
        )
        return coordinator, server

    def _source_store(self, tmp_path) -> str:
        source = ColumnarStore(tmp_path / "src")
        spec = TrialSpec.of("cycle", 12, 3)
        source.put("t", spec, _probe_task(spec))
        source.close()
        return str(tmp_path / "src")

    def test_right_token_speaks_every_verb(self, tmp_path):
        coordinator, server = self._server(tmp_path)
        source = self._source_store(tmp_path)
        with server:
            client = CoordinatorClient(server.url, token=self.TOKEN)
            assert client.lease("w").unit.unit_id == 0
            assert client.renew("w", 0)
            assert client.release("w", 0)
            client.lease("w")
            assert client.complete("w", 0) == "completed"
            assert client.status()["completed"] == 1
            HTTPTransport(server.url, token=self.TOKEN).push(source, "u0-a1-w")
        assert len(pushed_store_dirs(str(tmp_path / "staging"))) == 1

    @pytest.mark.parametrize("token", [None, "wrong"], ids=["missing", "wrong"])
    def test_bad_token_is_401_on_every_verb_with_state_unchanged(
        self, tmp_path, token
    ):
        coordinator, server = self._server(tmp_path)
        source = self._source_store(tmp_path)
        with server:
            client = CoordinatorClient(server.url, token=token)
            transport = HTTPTransport(server.url, token=token)
            for verb in (
                lambda: client.lease("w"),
                lambda: client.renew("w", 0),
                lambda: client.complete("w", 0),
                lambda: client.release("w", 0),
                lambda: client.status(),
                lambda: transport.push(source, "evil"),
            ):
                with pytest.raises(ConfigurationError, match="401"):
                    verb()
        status = coordinator.status()
        assert status["pending"] == 2 and status["completed"] == 0
        assert coordinator.late == 0 and coordinator.reassigned == 0
        assert pushed_store_dirs(str(tmp_path / "staging")) == []

    def test_tokenless_server_stays_open(self, tmp_path):
        """No token configured = the PR 5 behavior: open control plane."""
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        with CoordinatorServer(coordinator, str(tmp_path / "staging")) as server:
            client = CoordinatorClient(server.url)
            assert client.lease("w").unit.unit_id == 0
            assert client.complete("w", 0) == "completed"


class TestCoordinatedEndToEnd:
    """Abandoned lease + HTTP transport + repack == single host, bytes."""

    def _execute(self, specs):
        def execute(unit, store, renew):
            run_trials(
                flood_min_trial,
                specs,
                store=store,
                shard=(unit.index, unit.count),
                progress=renew,
            )

        return execute

    def test_worker_death_then_recovery_is_byte_identical(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(3), radius=12)
        single = ColumnarStore(tmp_path / "single")
        cold = run_trials(flood_min_trial, specs, store=single)
        single.close()

        units = [WorkUnit.of(i, "flood", i, 3) for i in range(3)]
        coordinator = SweepCoordinator(units, lease_ttl=0.2)
        staging_root = str(tmp_path / "staging")
        with CoordinatorServer(coordinator, staging_root) as server:
            client = CoordinatorClient(server.url)
            # A worker leases unit 0 and silently dies: no release, no
            # result, no renewals. Its lease must expire underneath it.
            abandoned = client.lease("dead-worker")
            assert abandoned.unit.unit_id == 0
            stats = run_worker(
                client,
                self._execute(specs),
                HTTPTransport(server.url),
                str(tmp_path / "scratch"),
                worker_id="survivor",
                poll=0.05,
            )
        assert stats["completed"] == 3
        assert coordinator.reassigned == 1 and coordinator.done

        staging = ColumnarStore(tmp_path / "merged-staging")
        merge_pushed(staging_root, staging)
        final = ColumnarStore(tmp_path / "final")
        replay = run_trials(
            _poison_task,
            specs,
            store=ReadThroughStore(final, staging),
            task_name=FLOOD_TASK_NAME,
        )
        assert replay == cold
        final.close()
        final_bytes = _store_bytes(str(tmp_path / "final"))
        assert final_bytes == _store_bytes(str(tmp_path / "single"))

    def test_late_duplicate_results_dedupe_at_merge(self, tmp_path):
        """The expired worker's results arrive anyway: dedupe, don't fail."""
        specs = grid(["cycle"], [12], range(4), radius=12)
        units = [WorkUnit.of(i, "flood", i, 2) for i in range(2)]
        clock = FakeClock()
        coordinator = SweepCoordinator(units, lease_ttl=5, clock=clock)
        staging_root = str(tmp_path / "staging")
        transport = DirTransport(staging_root)

        slow = coordinator.lease("slow")
        clock.advance(5.1)
        stats = run_worker(
            coordinator,
            self._execute(specs),
            transport,
            str(tmp_path / "scratch-fast"),
            worker_id="fast",
            poll=0.01,
        )
        assert stats["completed"] == 2 and coordinator.done
        # The slow worker wakes up, finishes the same unit, and pushes.
        slow_store = ColumnarStore(tmp_path / "scratch-slow")
        self._execute(specs)(slow.unit, slow_store, lambda *a: None)
        slow_store.close()
        transport.push(str(tmp_path / "scratch-slow"), "u0-a1-slow")
        assert coordinator.complete("slow", 0) == "duplicate"

        staging = ColumnarStore(tmp_path / "merged")
        stats = merge_pushed(staging_root, staging)
        assert stats["duplicate"] == 2  # the re-computed unit's records
        assert stats["added"] == len(specs)
        replay = run_trials(
            _poison_task, specs, store=staging, task_name=FLOOD_TASK_NAME
        )
        assert replay == run_trials(flood_min_trial, specs)

    def test_run_worker_in_process_with_dir_transport(self, tmp_path):
        """run_worker drives a SweepCoordinator directly — no sockets."""
        specs = grid(["cycle"], [12], range(3), radius=12)
        units = [WorkUnit.of(i, "flood", i, 3) for i in range(3)]
        coordinator = SweepCoordinator(units, lease_ttl=30)
        staging_root = str(tmp_path / "staging")
        stats = run_worker(
            coordinator,
            self._execute(specs),
            DirTransport(staging_root),
            str(tmp_path / "scratch"),
            worker_id="solo",
        )
        assert stats["completed"] == 3 and coordinator.done
        staging = ColumnarStore(tmp_path / "merged")
        assert merge_pushed(staging_root, staging)["added"] == len(specs)

    def test_failing_execute_reports_fail_and_keeps_working(self, tmp_path):
        """A crash in execute is reported via /fail, not fatal.

        The worker survives the failure, the coordinator requeues the
        unit, and once the attempt cap is hit the unit is quarantined
        (the sweep drains instead of hanging on a poison unit).
        """
        units = [WorkUnit.of(0, "flood", 0, 1)]
        coordinator = SweepCoordinator(units, lease_ttl=30, max_attempts=3)

        def explode(unit, store, renew):
            raise RuntimeError("boom")

        stats = run_worker(
            coordinator,
            explode,
            DirTransport(str(tmp_path / "staging")),
            str(tmp_path / "scratch"),
            worker_id="clumsy",
        )
        assert stats["failed"] == 3
        assert stats["completed"] == 0
        status = coordinator.status()
        assert status["quarantined"] == 1
        assert status["quarantine"]["0"]["attempts"] == 3
        assert "RuntimeError: boom" in status["quarantine"]["0"]["error"]
        assert status["done"] is True

    def test_keyboard_interrupt_releases_the_lease(self, tmp_path):
        units = [WorkUnit.of(0, "flood", 0, 1)]
        coordinator = SweepCoordinator(units, lease_ttl=30)

        def interrupt(unit, store, renew):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_worker(
                coordinator,
                interrupt,
                DirTransport(str(tmp_path / "staging")),
                str(tmp_path / "scratch"),
                worker_id="clumsy",
            )
        assert coordinator.lease("next").unit.unit_id == 0

    def test_failing_push_releases_the_lease(self, tmp_path):
        """A push failure must not strand the unit until TTL expiry."""
        specs = grid(["cycle"], [12], range(1), radius=12)
        units = [WorkUnit.of(0, "flood", 0, 1)]
        coordinator = SweepCoordinator(units, lease_ttl=30)

        class BrokenTransport(Transport):
            def push(self, store_root, name):
                raise ConfigurationError("disk full")

        with pytest.raises(ConfigurationError, match="disk full"):
            run_worker(
                coordinator,
                self._execute(specs),
                BrokenTransport(),
                str(tmp_path / "scratch"),
                worker_id="pusher",
            )
        assert coordinator.lease("next").unit.unit_id == 0
        # The un-pushed results stay on disk for post-mortem debugging.
        assert (tmp_path / "scratch" / "u0000-a01").is_dir()

    def test_scratch_store_is_removed_after_acknowledged_push(self, tmp_path):
        """Regression: per-attempt scratch stores piled up forever."""
        specs = grid(["cycle"], [12], range(3), radius=12)
        units = [WorkUnit.of(i, "flood", i, 3) for i in range(3)]
        coordinator = SweepCoordinator(units, lease_ttl=30)
        scratch = tmp_path / "scratch"
        stats = run_worker(
            coordinator,
            self._execute(specs),
            DirTransport(str(tmp_path / "staging")),
            str(scratch),
            worker_id="tidy",
        )
        assert stats["completed"] == 3
        assert list(scratch.iterdir()) == []  # every attempt cleaned up

    def test_coordinator_death_mid_push_keeps_scratch_and_exits(self, tmp_path):
        specs = grid(["cycle"], [12], range(1), radius=12)
        units = [WorkUnit.of(0, "flood", 0, 1)]
        coordinator = SweepCoordinator(units, lease_ttl=30)

        class DeadTransport(Transport):
            def push(self, store_root, name):
                raise CoordinatorUnavailable("connection refused")

        scratch = tmp_path / "scratch"
        stats = run_worker(
            coordinator,
            self._execute(specs),
            DeadTransport(),
            str(scratch),
            worker_id="orphan",
        )
        assert stats["completed"] == 0
        # Computed-but-unpushed results are kept: a --resume'd
        # coordinator re-leases the unit and the work is redone, but
        # nothing is silently deleted out from under the operator.
        assert (scratch / "u0000-a01").is_dir()

    def test_two_concurrent_workers_split_the_units(self, tmp_path):
        specs = grid(["cycle", "path"], [12], range(3), radius=12)
        units = [WorkUnit.of(i, "flood", i, 4) for i in range(4)]
        coordinator = SweepCoordinator(units, lease_ttl=30)
        staging_root = str(tmp_path / "staging")
        results = {}

        def spin(worker_id):
            results[worker_id] = run_worker(
                coordinator,
                self._execute(specs),
                DirTransport(staging_root),
                str(tmp_path / f"scratch-{worker_id}"),
                worker_id=worker_id,
                poll=0.01,
            )

        threads = [threading.Thread(target=spin, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert coordinator.done and coordinator.reassigned == 0
        total = sum(stats["completed"] for stats in results.values())
        assert total == 4
        staging = ColumnarStore(tmp_path / "merged")
        merge_pushed(staging_root, staging)
        replay = run_trials(
            _poison_task, specs, store=staging, task_name=FLOOD_TASK_NAME
        )
        assert replay == run_trials(flood_min_trial, specs)


class TestCoordinationCLI:
    def test_flag_validation(self, tmp_path, capsys):
        from repro.analysis.cli import main

        assert main(["--coordinator", "127.0.0.1:0", "--worker", "u"]) == 2
        assert main(["--coordinator", "127.0.0.1:0"]) == 2  # no --store
        assert main(["--coordinator", "noport", "--store", str(tmp_path)]) == 2
        sharded = ["--worker", "u", "--shard-index", "0", "--shard-count", "2"]
        assert main(sharded) == 2
        assert main(["--worker", "u", "--merge", "x", "--store", "y"]) == 2
        assert main(["--worker", "u", "--transport", "dir"]) == 2
        assert main(["--worker", "u", "--store", str(tmp_path)]) == 2
        assert main(["--worker", "u", "e06"]) == 2  # coordinator picks sweeps
        storeless = ["--coordinator", "127.0.0.1:0", "--store", str(tmp_path)]
        assert main(storeless + ["e07"]) == 2  # nothing sweeping to coordinate
        capsys.readouterr()

    def test_worker_against_dead_coordinator_exits_cleanly(self, capsys):
        from repro.analysis.cli import main

        argv = [
            "--worker",
            "http://127.0.0.1:9",
            "--poll",
            "0.01",
            "--retries",
            "1",
        ]
        assert main(argv) == 0
        assert "0 unit(s) completed" in capsys.readouterr().out

    def test_experiment_units_slices_only_sweeping_drivers(self):
        from repro.analysis.coordinated import experiment_units

        units = experiment_units(["e06", "e07"], 3, True, 1)
        assert [unit.sweep for unit in units] == ["e06"] * 3
        assert [(unit.index, unit.count) for unit in units] == [
            (0, 3),
            (1, 3),
            (2, 3),
        ]
        with pytest.raises(ConfigurationError, match="nothing to coordinate"):
            experiment_units(["e07"], 2, True, 1)

    def test_parse_endpoint(self):
        from repro.analysis.coordinated import parse_endpoint

        assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_endpoint("host.example:8642") == ("host.example", 8642)
        for bad in ("nope", ":0", "h:x", "h:70000"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)

    def test_worker_mode_rejects_coordinator_only_flags(self, capsys):
        from repro.analysis.cli import main

        assert main(["--worker", "http://h:1", "--resume"]) == 2
        assert "coordinator flag" in capsys.readouterr().err
        assert main(["--worker", "http://h:1", "--timeout", "5"]) == 2
        assert "coordinator flag" in capsys.readouterr().err
        assert main(["--worker", "http://h:1", "--max-attempts", "3"]) == 2
        assert "coordinator flag" in capsys.readouterr().err

    def test_resume_refuses_a_legacy_staged_push(self, tmp_path, capsys):
        """--resume over a staging area holding a JSONL-shard push (an
        older build's) refuses before serving, naming the upgrade."""
        from repro.analysis.cli import main

        staging = tmp_path / "staging"
        staging.mkdir()
        (staging / JOURNAL_NAME).write_text("")
        write_pushed_store(str(staging), "u0000-a01-w", {"shards/t.jsonl": "{}\n"})
        rc = main(
            [
                "--coordinator",
                "127.0.0.1:0",
                "--store",
                str(tmp_path / "store"),
                "--staging",
                str(staging),
                "--resume",
                "--timeout",
                "5",
                "e06",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "u0000-a01-w" in err and "--compact" in err
        assert not (tmp_path / "store").exists()

    def test_resume_without_a_journal_is_an_error(self, tmp_path, capsys):
        from repro.analysis.cli import main

        rc = main(
            [
                "--coordinator",
                "127.0.0.1:0",
                "--store",
                str(tmp_path / "store"),
                "--staging",
                str(tmp_path / "staging"),
                "--resume",
                "e06",
            ]
        )
        assert rc == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_timeout_turns_a_stalled_fleet_into_an_error(self, tmp_path, capsys):
        """--timeout with no workers: loud failure, not an eternal hang."""
        from repro.analysis.cli import main

        rc = main(
            [
                "--coordinator",
                "127.0.0.1:0",
                "--store",
                str(tmp_path / "store"),
                "--staging",
                str(tmp_path / "staging"),
                "--timeout",
                "0.2",
                "e06",
            ]
        )
        assert rc == 2
        assert "did not complete" in capsys.readouterr().err

    def test_resolve_auth_token_prefers_flag_over_env(self, monkeypatch):
        from repro.analysis.coordinated import resolve_auth_token

        args = argparse.Namespace(auth_token=None)
        monkeypatch.delenv("REPRO_SWEEP_TOKEN", raising=False)
        assert resolve_auth_token(args) is None
        monkeypatch.setenv("REPRO_SWEEP_TOKEN", "from-env")
        assert resolve_auth_token(args) == "from-env"
        args.auth_token = "from-flag"
        assert resolve_auth_token(args) == "from-flag"


class _FakeTable:
    def render(self) -> str:
        return "efake ok"


class TestCoordinatedCLIService:
    """The full service cycle through the real CLI: run, refuse, resume."""

    SPECS = grid(["cycle"], [12], range(4), radius=12)

    @pytest.fixture
    def fake_experiment(self, monkeypatch):
        from repro.analysis import coordinated

        specs = self.SPECS

        def driver(
            quick=True, seed=1, workers=None, store=None, shard=None, progress=None
        ):
            run_trials(
                flood_min_trial, specs, store=store, shard=shard, progress=progress
            )
            return _FakeTable()

        monkeypatch.setitem(coordinated.EXPERIMENTS, "efake", driver)
        monkeypatch.setattr(
            coordinated, "SWEEPING", set(coordinated.SWEEPING) | {"efake"}
        )

    def _wait_for_server(self, url: str, timeout: float = 20.0) -> None:
        client = CoordinatorClient(url, timeout=1)
        deadline = time.time() + timeout
        while time.time() < deadline:
            try:
                client.status()
                return
            except CoordinatorUnavailable:
                time.sleep(0.05)
        raise AssertionError(f"coordinator at {url} never came up")

    def test_run_then_cold_refusal_then_resume_byte_identical(
        self, tmp_path, fake_experiment, capsys
    ):
        from repro.analysis.cli import main

        single = ColumnarStore(tmp_path / "single")
        run_trials(flood_min_trial, self.SPECS, store=single)
        single.close()

        port = _free_port()
        store = str(tmp_path / "store")
        staging = str(tmp_path / "staging")
        coordinator_argv = [
            "--coordinator",
            f"127.0.0.1:{port}",
            "--store",
            store,
            "--staging",
            staging,
            "--units",
            "2",
            "--timeout",
            "60",
            "efake",
        ]
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(rc=main(coordinator_argv))
        )
        thread.start()
        try:
            url = f"http://127.0.0.1:{port}"
            self._wait_for_server(url)
            worker_rc = main(
                [
                    "--worker",
                    url,
                    "--poll",
                    "0.01",
                    "--scratch",
                    str(tmp_path / "scratch"),
                ]
            )
        finally:
            thread.join(timeout=60)
        assert worker_rc == 0
        assert result == {"rc": 0}
        assert _store_bytes(store) == _store_bytes(str(tmp_path / "single"))
        journal = os.path.join(staging, JOURNAL_NAME)
        assert os.path.exists(journal)

        # A cold restart over the same staging area must refuse: the
        # journal records an in-flight (here: finished) sweep.
        restart_argv = [
            "--coordinator",
            f"127.0.0.1:{_free_port()}",
            "--store",
            str(tmp_path / "store2"),
            "--staging",
            staging,
            "--units",
            "2",
            "efake",
        ]
        assert main(restart_argv) == 2
        assert "pass --resume" in capsys.readouterr().err

        # --resume replays the journal (everything already complete, so
        # no workers are needed) and repacks the staged pushes into a
        # fresh store — byte-identical to the first merge.
        assert main(restart_argv + ["--resume", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "2/2 unit(s) already complete" in out
        assert _store_bytes(str(tmp_path / "store2")) == _store_bytes(store)


class _SleepRecorder:
    """An injectable sleep that records instead of waiting."""

    def __init__(self) -> None:
        self.calls: list = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)


class TestRetryPolicy:
    def _expected_delay(self, policy, counter, failure, label):
        raw = min(policy.base_delay * 2 ** (failure - 1), policy.max_delay)
        u = deterministic_uniform(counter, "retry", policy.seed, label)
        return raw * (0.5 + u)

    def test_backoff_schedule_is_deterministic_per_seed(self):
        recorder = _SleepRecorder()
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=2.0, seed="w1", sleep=recorder
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise CoordinatorUnavailable("down")
            return "ok"

        assert policy.call(flaky, label="lease") == "ok"
        assert calls["n"] == 4
        expected = [
            self._expected_delay(policy, k, k + 1, "lease") for k in range(3)
        ]
        assert recorder.calls == expected
        # A fresh policy with the same seed replays the same schedule; a
        # different seed (another worker) gets a different one.
        twin = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=2.0, seed="w1", sleep=recorder
        )
        other = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=2.0, seed="w2", sleep=recorder
        )
        assert twin.delay("lease", 1) == expected[0]
        assert other.delay("lease", 1) != expected[0]

    def test_budget_exhaustion_reraises_the_last_failure(self):
        recorder = _SleepRecorder()
        policy = RetryPolicy(attempts=3, base_delay=0.1, sleep=recorder)
        retries = {"n": 0}

        def always_down():
            raise CoordinatorUnavailable("still down")

        with pytest.raises(CoordinatorUnavailable, match="still down"):
            policy.call(
                always_down,
                label="lease",
                on_retry=lambda: retries.__setitem__("n", retries["n"] + 1),
            )
        assert retries["n"] == 2  # attempts - 1 retries, then give up
        assert len(recorder.calls) == 2

    def test_only_retryable_errors_are_retried(self):
        policy = RetryPolicy(attempts=5, sleep=_SleepRecorder())
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise ConfigurationError("bad request")

        with pytest.raises(ConfigurationError, match="bad request"):
            policy.call(fatal)
        assert calls["n"] == 1  # no second attempt

    def test_delay_caps_at_max_delay(self):
        policy = RetryPolicy(
            attempts=10, base_delay=0.1, max_delay=0.4, sleep=_SleepRecorder()
        )
        # By failure 3 the raw backoff (0.4) hits the cap; jitter keeps
        # every delay in [0.5, 1.5) x raw.
        for failure in (3, 4, 5):
            delay = policy.delay("x", failure)
            assert 0.2 <= delay < 0.6

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError, match="delays"):
            RetryPolicy(base_delay=-1)


class TestQuarantine:
    """The poison-unit circuit breaker: /fail, attempt caps, recovery."""

    def test_fail_requeues_until_the_attempt_cap(self):
        coordinator = SweepCoordinator(
            _units(1), lease_ttl=10, clock=FakeClock(), max_attempts=3
        )
        for attempt in (1, 2):
            reply = coordinator.lease("w")
            assert reply.attempt == attempt
            assert coordinator.fail("w", 0, "boom") == "requeued"
        assert coordinator.lease("w").attempt == 3
        assert coordinator.fail("w", 0, "third strike") == "quarantined"
        status = coordinator.status()
        assert status["quarantined"] == 1 and status["done"]
        assert status["quarantine"]["0"]["error"] == "third strike"
        assert status["quarantine"]["0"]["attempts"] == 3
        # A quarantined unit is never re-leased.
        assert coordinator.lease("w").unit is None

    def test_fail_from_a_stale_worker_is_ignored(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=clock)
        coordinator.lease("a")
        assert coordinator.fail("not-the-holder", 0, "x") == "ignored"
        clock.advance(5.1)
        # Expired: the original holder's report is stale too.
        assert coordinator.fail("a", 0, "x") == "ignored"
        assert coordinator.status()["quarantined"] == 0

    def test_fail_unknown_unit_is_an_error(self):
        coordinator = SweepCoordinator(_units(1), lease_ttl=5, clock=FakeClock())
        with pytest.raises(ConfigurationError, match="unknown unit"):
            coordinator.fail("w", 99)

    def test_silent_worker_death_quarantines_via_the_lease_path(self):
        """Workers that die without reporting still trip the breaker."""
        clock = FakeClock()
        coordinator = SweepCoordinator(
            _units(2), lease_ttl=5, clock=clock, max_attempts=2
        )
        for _ in range(2):
            assert coordinator.lease("doomed").unit.unit_id == 0
            clock.advance(5.1)
        # Attempt cap burned with no completion: the next lease call
        # quarantines unit 0 and hands out unit 1 instead.
        reply = coordinator.lease("fresh")
        assert reply.unit.unit_id == 1
        status = coordinator.status()
        assert status["quarantined"] == 1
        assert "workers died" in status["quarantine"]["0"]["error"]

    def test_max_attempts_none_never_quarantines(self):
        clock = FakeClock()
        coordinator = SweepCoordinator(
            _units(1), lease_ttl=5, clock=clock, max_attempts=None
        )
        for attempt in range(1, 20):
            assert coordinator.lease("w").attempt == attempt
            assert coordinator.fail("w", 0, "boom") == "requeued"
        assert coordinator.status()["quarantined"] == 0

    def test_late_completion_lifts_the_quarantine(self):
        coordinator = SweepCoordinator(
            _units(1), lease_ttl=10, clock=FakeClock(), max_attempts=1
        )
        coordinator.lease("w")
        assert coordinator.fail("w", 0, "boom") == "quarantined"
        assert coordinator.complete("straggler", 0) == "late"
        status = coordinator.status()
        assert status["quarantined"] == 0 and status["completed"] == 1
        assert status["quarantine"] == {}

    def test_quarantine_survives_recovery(self, tmp_path):
        journal = str(tmp_path / JOURNAL_NAME)
        coordinator = SweepCoordinator(
            _units(2),
            lease_ttl=10,
            clock=FakeClock(),
            journal_path=journal,
            max_attempts=2,
        )
        coordinator.lease("w")
        assert coordinator.fail("w", 0, "boom") == "requeued"
        coordinator.lease("w")
        assert coordinator.fail("w", 0, "boom again") == "quarantined"
        coordinator.lease("w")
        assert coordinator.complete("w", 1) == "completed"
        coordinator.close()

        recovered = SweepCoordinator.recover(
            _units(2), journal, lease_ttl=10, clock=FakeClock(), max_attempts=2
        )
        status = recovered.status()
        assert status["quarantined"] == 1 and status["completed"] == 1
        assert status["quarantine"]["0"]["error"] == "boom again"
        assert status["quarantine"]["0"]["attempts"] == 2
        assert recovered.done
        # The breaker does not reset: the unit stays un-leasable.
        assert recovered.lease("w").unit is None
        recovered.close()
        second = SweepCoordinator.recover(
            _units(2), journal, lease_ttl=10, clock=FakeClock(), max_attempts=2
        )
        assert second.status() == status
        second.close()

    def test_attempt_counts_survive_recovery_mid_streak(self, tmp_path):
        """A coordinator crash must not reset a poison unit's breaker."""
        journal = str(tmp_path / JOURNAL_NAME)
        coordinator = SweepCoordinator(
            _units(1),
            lease_ttl=10,
            clock=FakeClock(),
            journal_path=journal,
            max_attempts=2,
        )
        coordinator.lease("w")
        assert coordinator.fail("w", 0, "boom") == "requeued"
        coordinator.close()
        recovered = SweepCoordinator.recover(
            _units(1), journal, lease_ttl=10, clock=FakeClock(), max_attempts=2
        )
        reply = recovered.lease("w")
        assert reply.attempt == 2  # not back to 1
        assert recovered.fail("w", 0, "boom") == "quarantined"
        recovered.close()

    def test_recovery_quarantines_via_journaled_quarantine_event(self, tmp_path):
        """The quarantine transition itself is journaled and replayed."""
        journal = str(tmp_path / JOURNAL_NAME)
        coordinator = SweepCoordinator(
            _units(1),
            lease_ttl=10,
            clock=FakeClock(),
            journal_path=journal,
            max_attempts=1,
        )
        coordinator.lease("w")
        coordinator.fail("w", 0, "boom")
        coordinator.close()
        events = [e["event"] for e in read_jsonl(journal)]
        assert events == ["lease", "quarantine"]

    def test_completion_beats_quarantine_in_the_journal(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        events = [
            {"event": "lease", "unit": 0, "worker": "a", "attempt": 1},
            {"event": "complete", "unit": 0, "worker": "a", "verdict": "late"},
            {"event": "quarantine", "unit": 0, "worker": "a", "error": "x"},
        ]
        with open(journal, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        recovered = SweepCoordinator.recover(
            _units(1), journal, lease_ttl=5, clock=FakeClock()
        )
        status = recovered.status()
        assert status["completed"] == 1 and status["quarantined"] == 0
        recovered.close()


class TestPushIntegrity:
    FILES = {"tail.jsonl": '{"r":1}\n', "extra.txt": "{}\n"}

    def test_matching_digests_verify(self):
        verify_pushed_files(self.FILES, {
            rel: file_digest(text) for rel, text in self.FILES.items()
        })

    def test_truncated_file_is_rejected(self):
        digests = {rel: file_digest(text) for rel, text in self.FILES.items()}
        corrupted = dict(self.FILES)
        corrupted["tail.jsonl"] = corrupted["tail.jsonl"][:3]
        with pytest.raises(PushIntegrityError, match="corrupt"):
            verify_pushed_files(corrupted, digests)

    def test_manifest_key_mismatch_is_rejected(self):
        digests = {rel: file_digest(text) for rel, text in self.FILES.items()}
        short = {"extra.txt": self.FILES["extra.txt"]}
        with pytest.raises(PushIntegrityError, match="manifest mismatch"):
            verify_pushed_files(short, digests)

    def test_write_pushed_store_verifies_before_staging(self, tmp_path):
        digests = {rel: file_digest(text) for rel, text in self.FILES.items()}
        corrupted = dict(self.FILES)
        corrupted["tail.jsonl"] = ""
        with pytest.raises(PushIntegrityError):
            write_pushed_store(str(tmp_path), "bad", corrupted, digests)
        assert list(tmp_path.iterdir()) == []  # nothing staged

    def test_http_corrupt_push_is_409_and_retryable(self, tmp_path):
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        staging = str(tmp_path / "staging")
        with CoordinatorServer(coordinator, staging) as server:
            transport = HTTPTransport(server.url)
            digests = {
                rel: file_digest(text) for rel, text in self.FILES.items()
            }
            corrupted = dict(self.FILES)
            corrupted["tail.jsonl"] = '{"r"'
            with pytest.raises(PushIntegrityError) as excinfo:
                transport._deliver("u0-a1-w", corrupted, digests)
            assert isinstance(excinfo.value, RetryableError)
            assert "409" in str(excinfo.value)
            assert pushed_store_dirs(staging) == []
            # The retried (intact) push converges.
            transport._deliver("u0-a1-w", self.FILES, digests)
            assert len(pushed_store_dirs(staging)) == 1

    def test_digestless_push_is_still_accepted(self, tmp_path):
        """Back-compat: a digest-free push (an older worker) stages."""
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        staging = str(tmp_path / "staging")
        with CoordinatorServer(coordinator, staging) as server:
            reply = CoordinatorClient(server.url)._post(
                "/push?name=legacy", {"files": {"tail.jsonl": "x\n"}}
            )
            assert reply["stored"] == "legacy"

    def test_http_transport_retry_rides_out_integrity_failures(self, tmp_path):
        """A transport given a policy retries a 409 by itself."""
        coordinator = SweepCoordinator(_units(1), lease_ttl=30)
        staging = str(tmp_path / "staging")
        store_root = tmp_path / "src"
        store = ColumnarStore(store_root)
        spec = TrialSpec.of("cycle", 12, 0)
        store.put("t", spec, _probe_task(spec))
        store.close()
        with CoordinatorServer(coordinator, staging) as server:
            recorder = _SleepRecorder()
            policy = RetryPolicy(attempts=3, base_delay=0.01, sleep=recorder)
            transport = HTTPTransport(server.url, retry=policy)

            class CorruptOnce(HTTPTransport):
                pushes = 0

                def _deliver(self, name, files, digests):
                    # First attempt ships a truncated payload with the
                    # honest digests; the retry ships clean.
                    CorruptOnce.pushes += 1
                    if CorruptOnce.pushes == 1:
                        files = dict(files)
                        victim = sorted(files)[0]
                        files[victim] = files[victim][:1]
                    return HTTPTransport._deliver(self, name, files, digests)

            corrupt = CorruptOnce(server.url, retry=policy)
            corrupt.push(str(store_root), "u0-a1-w")
            assert CorruptOnce.pushes == 2
            assert len(recorder.calls) == 1
            assert len(pushed_store_dirs(staging)) == 1


class _ScriptedControl:
    """A control-plane stub driven by a list of lease outcomes."""

    def __init__(self, leases) -> None:
        self.leases = list(leases)
        self.log: list = []

    def lease(self, worker_id):
        self.log.append("lease")
        outcome = self.leases.pop(0) if self.leases else LeaseReply(None, 0, True)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def renew(self, worker_id, unit_id):
        self.log.append("renew")
        return True

    def complete(self, worker_id, unit_id):
        self.log.append("complete")
        return "completed"

    def release(self, worker_id, unit_id):
        self.log.append("release")
        return True

    def fail(self, worker_id, unit_id, error=""):
        self.log.append(("fail", error))
        return "requeued"


class TestWorkerResilience:
    def _noop_execute(self, unit, store, renew):
        renew()

    def test_idle_poll_jitter_schedule_is_pinned_per_worker(self, tmp_path):
        """Satellite: a lockstep fleet must not hammer /lease in waves."""
        schedules = {}
        for worker_id in ("w1", "w2"):
            control = _ScriptedControl(
                [LeaseReply(None, 0, False)] * 3 + [LeaseReply(None, 0, True)]
            )
            recorder = _SleepRecorder()
            run_worker(
                control,
                self._noop_execute,
                DirTransport(str(tmp_path / "staging")),
                str(tmp_path / f"scratch-{worker_id}"),
                worker_id=worker_id,
                poll=1.0,
                sleep=recorder,
            )
            expected = [
                1.0 * (0.5 + deterministic_uniform(k, "idle-poll", worker_id))
                for k in range(3)
            ]
            assert recorder.calls == expected
            for delay in recorder.calls:
                assert 0.5 <= delay < 1.5
            schedules[worker_id] = recorder.calls
        # Distinct workers de-synchronize: no shared poll cadence.
        assert schedules["w1"] != schedules["w2"]

    def test_worker_rides_out_a_coordinator_restart(self, tmp_path):
        """The retry budget bridges the gap a --resume restart leaves."""
        unit = WorkUnit.of(0, "s", 0, 1)
        control = _ScriptedControl(
            [
                CoordinatorUnavailable("restarting"),
                CoordinatorUnavailable("still restarting"),
                LeaseReply(unit, 1),
            ]
        )
        recorder = _SleepRecorder()
        stats = run_worker(
            control,
            self._noop_execute,
            DirTransport(str(tmp_path / "staging")),
            str(tmp_path / "scratch"),
            worker_id="patient",
            sleep=recorder,
            retry=RetryPolicy(
                attempts=5, base_delay=0.01, seed="patient", sleep=recorder
            ),
        )
        assert stats["completed"] == 1
        assert stats["retries"] == 2
        assert len(recorder.calls) == 2  # two backoff sleeps, no idle polls

    def test_without_a_policy_the_first_outage_ends_the_loop(self, tmp_path):
        control = _ScriptedControl([CoordinatorUnavailable("down")])
        stats = run_worker(
            control,
            self._noop_execute,
            DirTransport(str(tmp_path / "staging")),
            str(tmp_path / "scratch"),
            worker_id="impatient",
            sleep=_SleepRecorder(),
        )
        assert stats["completed"] == 0 and stats["retries"] == 0

    def test_auth_error_in_renew_hook_is_fatal_and_loud(self, tmp_path):
        """Satellite regression: a 401 surfacing through the renew
        progress hook used to propagate as an anonymous compute failure
        (release + worker death). It must surface as the
        AuthenticationError it is — naming the token mismatch — and must
        NOT be reported through /fail (which would 401 too)."""
        unit = WorkUnit.of(0, "s", 0, 1)

        class ExpiredToken(_ScriptedControl):
            def renew(self, worker_id, unit_id):
                raise AuthenticationError(
                    "coordinator rejected our auth token (HTTP 401)"
                )

        control = ExpiredToken([LeaseReply(unit, 1)])

        def execute(unit, store, renew):
            renew()  # the per-trial progress hook

        with pytest.raises(AuthenticationError, match="auth token"):
            run_worker(
                control,
                execute,
                DirTransport(str(tmp_path / "staging")),
                str(tmp_path / "scratch"),
                worker_id="mismatched",
                sleep=_SleepRecorder(),
            )
        assert not any(
            isinstance(entry, tuple) and entry[0] == "fail"
            for entry in control.log
        )

    def test_execute_failure_message_reaches_the_coordinator(self, tmp_path):
        unit = WorkUnit.of(0, "s", 0, 1)
        control = _ScriptedControl([LeaseReply(unit, 1)])

        def explode(unit, store, renew):
            raise ValueError("poisoned payload")

        stats = run_worker(
            control,
            explode,
            DirTransport(str(tmp_path / "staging")),
            str(tmp_path / "scratch"),
            worker_id="reporter",
            sleep=_SleepRecorder(),
        )
        assert stats["failed"] == 1
        assert ("fail", "ValueError: poisoned payload") in control.log


class TestControlPlaneConcurrency:
    def test_slow_push_does_not_block_renew(self, tmp_path, monkeypatch):
        """Satellite: /push and /renew are served by separate threads —
        a worker uploading a big store must not starve another worker's
        renewals into spurious lease expiry."""
        from repro.sim.batch import distrib

        real_write = distrib.write_pushed_store
        entered = threading.Event()

        def slow_write(staging_root, name, files, digests=None):
            entered.set()
            time.sleep(1.0)
            return real_write(staging_root, name, files, digests)

        monkeypatch.setattr(distrib, "write_pushed_store", slow_write)
        source = tmp_path / "src"
        store = ColumnarStore(source)
        spec = TrialSpec.of("cycle", 12, 0)
        store.put("t", spec, _probe_task(spec))
        store.close()

        coordinator = SweepCoordinator(_units(2), lease_ttl=0.8)
        with CoordinatorServer(coordinator, str(tmp_path / "staging")) as server:
            client = CoordinatorClient(server.url)
            assert client.lease("renewer").unit.unit_id == 0
            pusher = threading.Thread(
                target=HTTPTransport(server.url).push,
                args=(str(source), "u1-a1-other"),
            )
            pusher.start()
            assert entered.wait(timeout=5)
            # The push is asleep inside the handler; renewals must both
            # return promptly and keep the lease alive past its TTL.
            deadline = time.time() + 1.2
            while time.time() < deadline:
                start = time.time()
                assert client.renew("renewer", 0)
                assert time.time() - start < 0.5
                time.sleep(0.1)
            pusher.join(timeout=10)
            assert not pusher.is_alive()
            assert client.complete("renewer", 0) == "completed"
        assert coordinator.reassigned == 0
