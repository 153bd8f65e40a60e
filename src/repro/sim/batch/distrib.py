"""Dynamic sweep coordination: leased work units and shard-store transports.

PR 4's cross-host sharding required a human scheduler: pick a shard
count, assign each host its index, copy the stores to one machine,
merge. This module removes the human. A :class:`SweepCoordinator` owns
the grid as a list of :class:`WorkUnit`\\ s (shard slices of named
sweeps) and leases them to workers dynamically: a worker that dies
simply stops renewing, its lease expires, and the unit is re-leased to
whoever asks next. Completed unit stores (:class:`~repro.sim.batch.
colstore.ColumnarStore`\\ s) travel back through a :class:`Transport` —
:class:`DirTransport` (a shared or copied directory, subsuming the old
manual flow) or :class:`HTTPTransport` (stdlib ``urllib`` pushing to
the coordinator's stdlib ``http.server`` control plane; no new
dependencies).

Determinism is inherited, not re-proven: every unit is a deterministic
grid slice (``index::count``), every record is content-addressed, so
duplicate work from expired-then-completed leases dedupes under
``merge_stores``'s identical-record rule, and a final replay through a
:class:`~repro.sim.batch.store.ReadThroughStore` repacks the merged
records into a store byte-identical to the single-host run — whatever
mix of workers, leases, retries, and transports produced them. The
repack puts records in grid order and flushes where the single-host
sweep flushes, so the final store packs the same segments.

A push carries the unit store's records as one ``tail.jsonl`` file —
the exact lines the store's own ingest tail would hold — so the wire
stays text, and the staged push opens as a tail-only store.

The control plane is deliberately tiny — six JSON-over-HTTP verbs
(``lease``, ``renew``, ``complete``, ``release``, ``fail``, ``push``)
plus a ``status`` probe — and :class:`SweepCoordinator` itself is pure
in-memory state with an injectable clock, so lease semantics are unit
testable with no sockets or subprocesses (``tests/test_distrib.py``).

Failure handling follows one taxonomy: transient failures (a dead or
restarting coordinator, an injected 503, a truncated push) raise
:class:`RetryableError` subclasses and are absorbed by a
:class:`RetryPolicy` with deterministic jitter; configuration mistakes
(bad request, token mismatch -> :class:`AuthenticationError`) fail
fast; and a unit whose compute keeps failing is *quarantined* by the
coordinator after ``max_attempts`` leases rather than killing every
worker that touches it (see :mod:`repro.sim.batch.faults` for the
chaos layer that exercises all of this on a reproducible schedule).
"""

from __future__ import annotations

import dataclasses
import hmac
import json
import os
import re
import shutil
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError
from ...randomness.block import deterministic_uniform
from .colstore import TAIL_NAME, ColumnarStore
from .store import (
    LEGACY_SHARD_DIR,
    append_jsonl,
    file_digest,
    jsonl_line,
    merge_stores,
    open_jsonl_append,
    read_jsonl,
)

#: Lease lifetime (seconds) when the caller does not choose one.
DEFAULT_LEASE_TTL = 60.0

#: Per-unit attempt cap before quarantine when the caller does not
#: choose one. A unit that has been leased this many times without a
#: completion — its workers kept dying or reporting failures — is
#: declared poisoned and parked instead of being re-leased forever.
DEFAULT_MAX_ATTEMPTS = 5

#: File name of the coordinator's write-ahead journal inside the
#: staging directory (next to the pushed stores it belongs with).
JOURNAL_NAME = "journal.jsonl"

#: Environment variable consulted for the control-plane shared token
#: when ``--auth-token`` is not given explicitly.
TOKEN_ENV_VAR = "REPRO_SWEEP_TOKEN"


class RetryableError(ConfigurationError):
    """A control-plane failure worth retrying (outage, 5xx, bad push).

    The taxonomy the whole recovery layer keys on: transient transport
    and server-side failures derive from this class and are eligible
    for :class:`RetryPolicy` backoff; everything else (bad request,
    auth mismatch) is treated as fatal — retrying a 400 forever would
    only hide a bug.
    """


class CoordinatorUnavailable(RetryableError):
    """The coordinator endpoint cannot be reached (dead or restarting)."""


class PushIntegrityError(RetryableError):
    """A pushed store failed digest verification (truncated/corrupt).

    Retryable by definition: the sender re-reads the intact store from
    disk, so a retried push converges unless the disk itself is bad.
    """


class AuthenticationError(ConfigurationError):
    """The control plane rejected our token (HTTP 401). Never retried.

    Deliberately *not* a :class:`RetryableError`: a token mismatch is a
    configuration problem that retrying cannot fix, and it must surface
    loudly instead of masquerading as a compute failure mid-trial.
    """


class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``call(fn)`` invokes ``fn`` up to ``attempts`` times, sleeping
    ``min(base_delay * 2**k, max_delay) * (0.5 + u)`` between tries,
    where ``u`` is :func:`deterministic_uniform` of ``(seed, label,
    k-th use)`` — reproducible, but de-synchronized across workers that
    pass distinct seeds (give it the worker id). Only
    :class:`RetryableError` is retried; everything else propagates
    immediately. ``sleep`` is injectable so tests pin the schedule
    without waiting it out.
    """

    def __init__(
        self,
        attempts: int = 5,
        base_delay: float = 0.1,
        max_delay: float = 2.0,
        seed: Any = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ConfigurationError(
                f"delays must be >= 0, got base {base_delay}, max {max_delay}"
            )
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed
        self._sleep = sleep
        self._counters: Dict[str, int] = {}

    def delay(self, label: str, failure: int) -> float:
        """The jittered backoff after the ``failure``-th failure (1-based)."""
        counter = self._counters.get(label, 0)
        self._counters[label] = counter + 1
        raw = min(self.base_delay * (2 ** (failure - 1)), self.max_delay)
        return raw * (0.5 + deterministic_uniform(counter, "retry", self.seed, label))

    def call(
        self,
        fn: Callable[[], Any],
        label: str = "call",
        on_retry: Optional[Callable[[], None]] = None,
    ) -> Any:
        failures = 0
        while True:
            try:
                return fn()
            except RetryableError:
                failures += 1
                if failures >= self.attempts:
                    raise
                if on_retry is not None:
                    on_retry()
                self._sleep(self.delay(label, failures))


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One leasable slice of a sweep: shard ``index`` of ``count``.

    ``sweep`` names what to run (an experiment name, or any key the
    executor understands); ``payload`` carries run knobs (profile,
    seed) as sorted pairs so the JSON wire form is canonical.
    """

    unit_id: int
    sweep: str
    index: int
    count: int
    payload: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        canonical = tuple(
            sorted((tuple(pair) for pair in self.payload), key=lambda p: p[0])
        )
        object.__setattr__(self, "payload", canonical)

    @classmethod
    def of(cls, unit_id: int, sweep: str, index: int, count: int, **payload: Any):
        return cls(unit_id, sweep, index, count, tuple(payload.items()))

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.payload:
            if key == name:
                return value
        return default

    def to_json(self) -> Dict[str, Any]:
        return {
            "unit_id": self.unit_id,
            "sweep": self.sweep,
            "index": self.index,
            "count": self.count,
            "payload": [[key, value] for key, value in self.payload],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "WorkUnit":
        return cls(
            int(data["unit_id"]),
            str(data["sweep"]),
            int(data["index"]),
            int(data["count"]),
            tuple((pair[0], pair[1]) for pair in data.get("payload", ())),
        )


@dataclasses.dataclass(frozen=True)
class LeaseReply:
    """What a lease request came back with.

    ``unit is None`` means nothing is available right now; ``done``
    distinguishes "the sweep is finished, go home" from "every unit is
    leased out, poll again".
    """

    unit: Optional[WorkUnit]
    attempt: int = 0
    done: bool = False


_PENDING = "pending"
_LEASED = "leased"
_COMPLETED = "completed"
_QUARANTINED = "quarantined"


class SweepCoordinator:
    """In-memory lease manager for a fixed set of work units.

    Thread safe (the HTTP control plane calls in from handler threads).
    Expiry is lazy — every lease/renew/complete/status call first
    requeues any lease whose deadline has passed — plus an explicit
    :meth:`expire` for the coordinator's own wait loop. The ``clock``
    is injectable so lease semantics are testable without sleeping.

    A late completion (the lease expired, possibly re-leased, but the
    original worker's results still arrived) is accepted and counted in
    ``late``: the work is deterministic, so late results are as good as
    on-time ones, and any double-computed records dedupe at merge time
    under the store's identical-record rule.

    With a ``journal_path``, every state transition is appended to a
    write-ahead journal — one JSON line per event, flush+fsync before
    the in-memory state changes, the same torn-line-tolerant discipline
    as the trial store's ingest tail — and
    :meth:`recover` rebuilds a crashed coordinator from it: completed
    units stay completed, attempt counts and ``reassigned``/``late``
    stats survive, and leases that were live at the crash are
    conservatively requeued (their workers may be dead; if not, their
    completions land as harmless "late" ones).

    ``max_attempts`` is the poison-unit circuit breaker: a unit leased
    that many times without ever completing — whether its workers died
    (expiry) or reported execute failures (:meth:`fail`) — is moved to
    a journaled ``quarantined`` state instead of being re-leased
    forever. Quarantined units count toward ``done`` (the sweep drains
    instead of hanging), are surfaced loudly in :meth:`status`, and a
    late completion for one is still accepted — data beats a diagnosis.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
        journal_path: Optional[str] = None,
        max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        units = list(units)
        if not units:
            raise ConfigurationError("a coordinator needs at least one work unit")
        if lease_ttl <= 0:
            raise ConfigurationError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_attempts is not None and max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1 or None, got {max_attempts}"
            )
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate unit ids in {sorted(ids)}")
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = max_attempts
        self._clock = clock
        self._units = {unit.unit_id: unit for unit in units}
        self._state = {unit.unit_id: _PENDING for unit in units}
        self._worker: Dict[int, str] = {}
        self._deadline: Dict[int, float] = {}
        self._attempts = {unit.unit_id: 0 for unit in units}
        self._completed_by: Dict[int, str] = {}
        self._quarantine: Dict[int, Dict[str, Any]] = {}
        self.reassigned = 0
        self.late = 0
        self._lock = threading.Lock()
        self.journal_path = os.fspath(journal_path) if journal_path else None
        self._journal_handle: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    # the write-ahead journal
    # ------------------------------------------------------------------
    def _journal(self, event: Dict[str, Any]) -> None:
        """Durably append one transition (call with the lock held).

        Write-ahead: callers journal *before* mutating in-memory state,
        so a crash between the two leaves a journal that is ahead of
        reality — replay then conservatively requeues the affected
        lease, never forgets a completion.
        """
        if self.journal_path is None:
            return
        if self._journal_handle is None:
            parent = os.path.dirname(self.journal_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._journal_handle = open_jsonl_append(self.journal_path)
        append_jsonl(self._journal_handle, event)

    def close(self) -> None:
        """Close the journal handle (appends reopen it on demand)."""
        with self._lock:
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None

    @classmethod
    def recover(
        cls,
        units: Sequence[WorkUnit],
        journal_path: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
        max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
    ) -> "SweepCoordinator":
        """Rebuild a coordinator from its write-ahead journal.

        ``units`` must be the same unit table the crashed coordinator
        served (it is deterministic in the CLI flow: same experiments,
        same ``--units``); the journal is replayed over it, then every
        lease still live at the crash is requeued — counted in
        ``reassigned`` and journaled, so a second recovery agrees.
        Tolerates a torn trailing line (the crash may have been
        mid-append) and duplicate or late entries. Quarantined units
        stay quarantined; attempt counts survive, so a poison unit
        cannot reset its circuit breaker by crashing the coordinator.
        """
        coordinator = cls(
            units, lease_ttl=lease_ttl, clock=clock, max_attempts=max_attempts
        )
        for event in read_jsonl(journal_path):
            coordinator._replay(event)
        coordinator.journal_path = os.fspath(journal_path)
        with coordinator._lock:
            for unit_id, state in coordinator._state.items():
                if state != _LEASED:
                    continue
                coordinator._journal(
                    {"event": "expire", "unit": unit_id, "recovered": True}
                )
                coordinator._state[unit_id] = _PENDING
                coordinator._worker.pop(unit_id, None)
                coordinator._deadline.pop(unit_id, None)
                coordinator.reassigned += 1
        return coordinator

    def _replay(self, event: Dict[str, Any]) -> None:
        """Apply one journaled transition verbatim (no re-journaling)."""
        kind = event.get("event")
        if kind not in (
            "lease",
            "renew",
            "complete",
            "release",
            "expire",
            "fail",
            "quarantine",
        ):
            return  # foreign/future record: ignore, like torn lines
        try:
            unit_id = int(event["unit"])
        except (KeyError, TypeError, ValueError):
            return
        if unit_id not in self._units:
            raise ConfigurationError(
                f"journal references unknown unit {unit_id}; this journal "
                f"belongs to a different sweep than the supplied unit table"
            )
        state = self._state[unit_id]
        if kind == "lease":
            self._state[unit_id] = _LEASED
            self._worker[unit_id] = str(event.get("worker", "?"))
            self._deadline[unit_id] = self._clock() + self.lease_ttl
            attempt = event.get("attempt")
            self._attempts[unit_id] = max(
                self._attempts[unit_id] + 1,
                int(attempt) if attempt is not None else 0,
            )
        elif kind == "renew":
            if state == _LEASED:
                self._deadline[unit_id] = self._clock() + self.lease_ttl
        elif kind == "complete":
            if state == _COMPLETED:
                return  # duplicate entry: already counted
            self._state[unit_id] = _COMPLETED
            self._completed_by[unit_id] = str(event.get("worker", "?"))
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            self._quarantine.pop(unit_id, None)
            if event.get("verdict") == "late":
                self.late += 1
        elif kind == "quarantine":
            if state == _COMPLETED:
                return  # a completion beat the quarantine: keep the data
            self._state[unit_id] = _QUARANTINED
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            self._quarantine[unit_id] = {
                "worker": str(event.get("worker", "?")),
                "error": str(event.get("error", "")),
                "attempts": int(event.get("attempts", self._attempts[unit_id])),
            }
        elif kind in ("release", "expire", "fail"):
            if state != _LEASED:
                return  # duplicate entry: the lease is already gone
            self._state[unit_id] = _PENDING
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            if kind == "expire":
                self.reassigned += 1

    # ------------------------------------------------------------------
    # control-plane verbs
    # ------------------------------------------------------------------
    def lease(self, worker_id: str) -> LeaseReply:
        """Hand out the lowest-id pending unit, or report done/busy.

        A pending unit that has already burned through ``max_attempts``
        leases (workers kept dying without ever reporting failure) is
        quarantined here instead of being handed out again — the
        lease-side half of the poison circuit breaker (:meth:`fail` is
        the reporting half).
        """
        with self._lock:
            self._expire_locked()
            for unit_id in sorted(self._units):
                if self._state[unit_id] != _PENDING:
                    continue
                attempt = self._attempts[unit_id] + 1
                if self.max_attempts is not None and attempt > self.max_attempts:
                    self._quarantine_locked(
                        unit_id,
                        worker="?",
                        error=(
                            f"attempt cap exhausted: leased "
                            f"{self._attempts[unit_id]} time(s) without a "
                            f"completion (workers died or leases expired)"
                        ),
                    )
                    continue
                self._journal(
                    {
                        "event": "lease",
                        "unit": unit_id,
                        "worker": worker_id,
                        "attempt": attempt,
                    }
                )
                self._state[unit_id] = _LEASED
                self._worker[unit_id] = worker_id
                self._deadline[unit_id] = self._clock() + self.lease_ttl
                self._attempts[unit_id] = attempt
                return LeaseReply(self._units[unit_id], self._attempts[unit_id])
            return LeaseReply(None, 0, self._done_locked())

    def renew(self, worker_id: str, unit_id: int) -> bool:
        """Extend a held lease; False if it already expired or moved on."""
        with self._lock:
            self._expire_locked()
            if self._state.get(unit_id) != _LEASED:
                return False
            if self._worker.get(unit_id) != worker_id:
                return False
            self._journal({"event": "renew", "unit": unit_id, "worker": worker_id})
            self._deadline[unit_id] = self._clock() + self.lease_ttl
            return True

    def complete(self, worker_id: str, unit_id: int) -> str:
        """Record a finished unit: "completed", "late", or "duplicate".

        A completion for a *quarantined* unit is accepted as "late" and
        lifts the quarantine — the straggler's data arrived after all,
        and deterministic data always beats a failure diagnosis.
        """
        with self._lock:
            self._expire_locked()
            if unit_id not in self._units:
                raise ConfigurationError(f"unknown unit id {unit_id}")
            state = self._state[unit_id]
            if state == _COMPLETED:
                return "duplicate"
            if self._attempts[unit_id] == 0:
                # A completion for a unit nobody ever leased is a
                # mis-addressed worker, not a late straggler: there is
                # no pushed payload for it, so accepting would let
                # wait_until_done return with data missing.
                raise ConfigurationError(
                    f"unit {unit_id} was never leased; refusing completion "
                    f"from worker {worker_id!r}"
                )
            holder = self._worker.get(unit_id)
            verdict = (
                "completed" if state == _LEASED and holder == worker_id else "late"
            )
            self._journal(
                {
                    "event": "complete",
                    "unit": unit_id,
                    "worker": worker_id,
                    "verdict": verdict,
                }
            )
            self._state[unit_id] = _COMPLETED
            self._completed_by[unit_id] = worker_id
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            self._quarantine.pop(unit_id, None)
            if verdict == "late":
                self.late += 1
            return verdict

    def release(self, worker_id: str, unit_id: int) -> bool:
        """Voluntarily return a held lease to the pending pool."""
        with self._lock:
            self._expire_locked()
            if self._state.get(unit_id) != _LEASED:
                return False
            if self._worker.get(unit_id) != worker_id:
                return False
            self._journal({"event": "release", "unit": unit_id, "worker": worker_id})
            self._state[unit_id] = _PENDING
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            return True

    def _quarantine_locked(self, unit_id: int, worker: str, error: str) -> None:
        """Journal and apply a quarantine (call with the lock held)."""
        self._journal(
            {
                "event": "quarantine",
                "unit": unit_id,
                "worker": worker,
                "error": error,
                "attempts": self._attempts[unit_id],
            }
        )
        self._state[unit_id] = _QUARANTINED
        self._worker.pop(unit_id, None)
        self._deadline.pop(unit_id, None)
        self._quarantine[unit_id] = {
            "worker": worker,
            "error": error,
            "attempts": self._attempts[unit_id],
        }

    def fail(self, worker_id: str, unit_id: int, error: str = "") -> str:
        """Report that ``execute`` raised: "requeued", "quarantined", or
        "ignored".

        The reporting half of the poison circuit breaker. A failure
        from the current lease holder requeues the unit — some crashes
        are environmental (OOM, a dying host) and another worker may
        succeed — unless this was already the unit's
        ``max_attempts``-th lease, in which case it is quarantined with
        the reported error preserved for :meth:`status`. A failure from
        a worker that no longer holds the lease is "ignored" (the TTL
        machinery already moved on).
        """
        with self._lock:
            self._expire_locked()
            if unit_id not in self._units:
                raise ConfigurationError(f"unknown unit id {unit_id}")
            if self._state.get(unit_id) != _LEASED:
                return "ignored"
            if self._worker.get(unit_id) != worker_id:
                return "ignored"
            if (
                self.max_attempts is not None
                and self._attempts[unit_id] >= self.max_attempts
            ):
                self._quarantine_locked(unit_id, worker_id, error)
                return "quarantined"
            self._journal(
                {
                    "event": "fail",
                    "unit": unit_id,
                    "worker": worker_id,
                    "error": error,
                }
            )
            self._state[unit_id] = _PENDING
            self._worker.pop(unit_id, None)
            self._deadline.pop(unit_id, None)
            return "requeued"

    def expire(self) -> List[int]:
        """Requeue every overdue lease; returns the requeued unit ids."""
        with self._lock:
            return self._expire_locked()

    def _expire_locked(self) -> List[int]:
        now = self._clock()
        requeued = []
        for unit_id, state in self._state.items():
            if state == _LEASED and self._deadline[unit_id] <= now:
                self._journal({"event": "expire", "unit": unit_id})
                self._state[unit_id] = _PENDING
                self._worker.pop(unit_id, None)
                self._deadline.pop(unit_id, None)
                self.reassigned += 1
                requeued.append(unit_id)
        return requeued

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        with self._lock:
            return self._done_locked()

    def _done_locked(self) -> bool:
        return all(
            state in (_COMPLETED, _QUARANTINED) for state in self._state.values()
        )

    def status(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (the ``GET /status`` body).

        Quarantined units are surfaced loudly: a top-level count plus a
        ``quarantine`` detail map (sweep, shard index, attempt count,
        last reported error, last worker) — a quarantined unit is a
        missing grid cell, and "done with 1 quarantined" must never
        read like "done".
        """
        with self._lock:
            self._expire_locked()
            now = self._clock()
            counts = {_PENDING: 0, _LEASED: 0, _COMPLETED: 0, _QUARANTINED: 0}
            for state in self._state.values():
                counts[state] += 1
            leases = {
                str(unit_id): {
                    "worker": self._worker[unit_id],
                    "expires_in": round(self._deadline[unit_id] - now, 3),
                    "attempt": self._attempts[unit_id],
                }
                for unit_id, state in self._state.items()
                if state == _LEASED
            }
            quarantine = {
                str(unit_id): {
                    "sweep": self._units[unit_id].sweep,
                    "index": self._units[unit_id].index,
                    "count": self._units[unit_id].count,
                    "attempts": entry["attempts"],
                    "error": entry["error"],
                    "worker": entry["worker"],
                }
                for unit_id, entry in sorted(self._quarantine.items())
            }
            sweeps: Dict[str, Dict[str, int]] = {}
            for unit_id, unit in self._units.items():
                entry = sweeps.setdefault(
                    unit.sweep,
                    {
                        "total": 0,
                        _PENDING: 0,
                        _LEASED: 0,
                        _COMPLETED: 0,
                        _QUARANTINED: 0,
                    },
                )
                entry["total"] += 1
                entry[self._state[unit_id]] += 1
            return {
                "total": len(self._units),
                "pending": counts[_PENDING],
                "leased": counts[_LEASED],
                "completed": counts[_COMPLETED],
                "quarantined": counts[_QUARANTINED],
                "reassigned": self.reassigned,
                "late": self.late,
                "leases": leases,
                "quarantine": quarantine,
                "sweeps": dict(sorted(sweeps.items())),
                "done": self._done_locked(),
            }


# ----------------------------------------------------------------------
# transports: moving a completed shard store to the coordinator
# ----------------------------------------------------------------------
def _safe_push_name(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name) or "push"
    if safe.startswith(("_", ".")):
        # Leading "_"/"." names are reserved for the staging area's own
        # bookkeeping (e.g. the "_merged" store) and hidden tmp dirs.
        safe = "p" + safe
    return safe


def _store_files(store_root: str) -> Dict[str, str]:
    """A push payload: the store's records as one ``tail.jsonl`` text."""
    with ColumnarStore(store_root) as store:
        return {TAIL_NAME: "".join(jsonl_line(r) for r in store.records())}


def _store_digests(files: Dict[str, str]) -> Dict[str, str]:
    """Content digests for a push payload: relpath -> file_digest."""
    return {rel: file_digest(text) for rel, text in files.items()}


def verify_pushed_files(files: Dict[str, str], digests: Dict[str, Any]) -> None:
    """Reject a push whose payload does not match its own manifest.

    The receiver-side half of push integrity: the sender digests each
    file *before* the bytes hit the wire, so any truncation or
    corruption in between shows up as a mismatch here. Raises
    :class:`PushIntegrityError` (HTTP 409, retryable — the sender
    re-reads the intact store from disk and the retry converges).
    """
    if set(digests) != set(files):
        missing = sorted(set(digests) - set(files))
        extra = sorted(set(files) - set(digests))
        raise PushIntegrityError(
            f"push manifest mismatch: files missing from payload {missing}, "
            f"files without digests {extra}"
        )
    for rel in sorted(files):
        actual = file_digest(files[rel])
        if not hmac.compare_digest(actual, str(digests[rel])):
            raise PushIntegrityError(
                f"push payload corrupt: {rel!r} digests to {actual} but the "
                f"sender computed {digests[rel]} (truncated or corrupted "
                f"in transit; retry the push)"
            )


def write_pushed_store(
    staging_root: str,
    name: str,
    files: Dict[str, str],
    digests: Optional[Dict[str, Any]] = None,
) -> str:
    """Materialize one pushed store under ``staging_root`` atomically.

    The server side of a push, shared by both transports' receive
    paths. With ``digests`` (the sender's content manifest), the
    payload is verified *before* anything touches disk — a truncated
    push raises :class:`PushIntegrityError` and stages nothing. The
    store appears under its (sanitized) push name via a tmp-dir rename,
    so a half-written push is never visible; if the name already exists
    the first push wins — push names are unique per attempt, so a
    collision is a retried identical payload.
    """
    if digests is not None:
        verify_pushed_files(files, digests)
    os.makedirs(staging_root, exist_ok=True)
    dest = os.path.join(staging_root, _safe_push_name(name))
    tmp = tempfile.mkdtemp(prefix=".push-", dir=staging_root)
    try:
        for rel, text in files.items():
            parts = rel.split("/")
            if any(part in ("", ".", "..") for part in parts):
                raise ConfigurationError(f"illegal path {rel!r} in pushed store")
            path = os.path.join(tmp, *parts)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        try:
            os.rename(tmp, dest)
        except OSError:
            if not os.path.isdir(dest):
                raise
            shutil.rmtree(tmp)  # duplicate push: keep the first copy
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dest


def pushed_store_dirs(staging_root: str) -> List[str]:
    """The store directories pushed so far, in sorted (merge) order.

    A push is a directory holding ``tail.jsonl``. A legacy JSONL-shard
    push (``shards/``) is listed too, so that merging it refuses loudly
    instead of silently dropping its records.
    """
    if not os.path.isdir(staging_root):
        return []
    dirs = []
    for name in sorted(os.listdir(staging_root)):
        if name.startswith(("_", ".")):
            continue
        path = os.path.join(staging_root, name)
        pushed = os.path.isfile(os.path.join(path, TAIL_NAME))
        if pushed or os.path.isdir(os.path.join(path, LEGACY_SHARD_DIR)):
            dirs.append(path)
    return dirs


def merge_pushed(staging_root: str, dest: ColumnarStore) -> Dict[str, int]:
    """Merge every pushed store into ``dest`` (empty staging -> no-op)."""
    dirs = pushed_store_dirs(staging_root)
    if not dirs:
        return {"added": 0, "duplicate": 0}
    return merge_stores(dest, dirs)


class Transport:
    """Ships a completed shard store to the coordinator's staging area.

    ``push`` reads the store and its content digests once, then hands
    both to :meth:`_deliver` — the seam where the bytes actually move
    (and where :class:`~repro.sim.batch.faults.FlakyTransport` corrupts
    them *after* digest computation, modeling a connection that died
    mid-body). Implementations must be idempotent per ``name``: pushing
    the same name twice (a retry) must leave one copy. Byte-level dedup
    of overlapping *records* across different pushes is not the
    transport's job — ``merge_stores`` handles that.
    """

    name = "?"

    def push(self, store_root: str, name: str) -> str:
        """Deliver the store rooted at ``store_root``; returns a label."""
        files = _store_files(store_root)
        return self._deliver(name, files, _store_digests(files))

    def _deliver(
        self, name: str, files: Dict[str, str], digests: Dict[str, str]
    ) -> str:
        raise NotImplementedError


class DirTransport(Transport):
    """Push = copy the store directory into a shared/collected root.

    Subsumes PR 4's manual flow (scp/rsync the store dirs to one host):
    point workers and coordinator at the same ``root`` — a shared
    filesystem, or a directory someone syncs — and pushes land as
    uniquely named store dirs the coordinator merges.
    """

    name = "dir"

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _deliver(
        self, name: str, files: Dict[str, str], digests: Dict[str, str]
    ) -> str:
        return write_pushed_store(self.root, name, files, digests)


class HTTPTransport(Transport):
    """Push = POST the store's files to the coordinator's control plane.

    The body carries the sender-side content digests alongside the
    files; the receiver verifies them before staging anything and
    answers 409 (-> :class:`PushIntegrityError`, retryable) on a
    mismatch. ``retry`` wraps each push in a :class:`RetryPolicy` so a
    truncated or refused push is retried from the intact on-disk store.
    """

    name = "http"

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token
        self.retry = retry

    def push(self, store_root: str, name: str) -> str:
        # Retry around the WHOLE push, not just the POST: each attempt
        # re-reads the store from disk, so a payload that was corrupted
        # on its way out (and 409'd by the receiver) goes back intact.
        if self.retry is None:
            return Transport.push(self, store_root, name)
        return self.retry.call(
            lambda: Transport.push(self, store_root, name), label="push"
        )

    def _deliver(
        self, name: str, files: Dict[str, str], digests: Dict[str, str]
    ) -> str:
        body = json.dumps({"files": files, "digests": digests}).encode("utf-8")
        url = f"{self.base_url}/push?name={urllib.parse.quote(name)}"
        reply = _http_json(url, body, self.timeout, token=self.token)
        return str(reply["stored"])


def _http_json(
    url: str,
    body: Optional[bytes],
    timeout: float,
    token: Optional[str] = None,
) -> Dict[str, Any]:
    """One JSON request/response round trip, errors normalized.

    The status-code taxonomy the retry layer keys on: 401 is an
    :class:`AuthenticationError` (fatal — retrying a bad token only
    hides it), 409 a :class:`PushIntegrityError` (retryable — the
    sender re-reads the intact store), any 5xx a plain
    :class:`RetryableError` (the server is having a moment), and the
    remaining 4xx a fatal :class:`ConfigurationError`. Connection-level
    failures are :class:`CoordinatorUnavailable` (retryable).
    """
    headers = {"Content-Type": "application/json"}
    if token:
        headers["X-Auth-Token"] = token
    request = urllib.request.Request(
        url,
        data=body,
        headers=headers,
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")[:500]
        message = f"coordinator rejected {url}: HTTP {exc.code} {detail}"
        if exc.code == 401:
            raise AuthenticationError(
                f"coordinator rejected our auth token at {url} (HTTP 401): "
                f"the worker's --auth-token/${TOKEN_ENV_VAR} does not match "
                f"the coordinator's; fix the token, do not retry. {detail}"
            ) from exc
        if exc.code == 409:
            raise PushIntegrityError(message) from exc
        if exc.code >= 500:
            raise RetryableError(message) from exc
        raise ConfigurationError(message) from exc
    except (urllib.error.URLError, ConnectionError, socket.timeout) as exc:
        raise CoordinatorUnavailable(
            f"coordinator unreachable at {url}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# the HTTP control plane
# ----------------------------------------------------------------------
class _ControlHandler(BaseHTTPRequestHandler):
    server_version = "SweepCoordinator/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the coordinator CLI prints its own, quieter progress

    def _reply(self, code: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        """Shared-token check, applied to every verb before dispatch.

        A missing or wrong token must never reach coordinator state —
        the caller gets a 401 and nothing else happens. Comparison is
        constant-time; no token configured means an open coordinator
        (the PR 5 behavior, fine on a trusted network).
        """
        expected = getattr(self.server, "auth_token", None)
        if not expected:
            return True
        supplied = self.headers.get("X-Auth-Token", "")
        return hmac.compare_digest(supplied, expected)

    def do_GET(self) -> None:
        if not self._authorized():
            self._reply(401, {"error": "missing or invalid auth token"})
            return
        if urllib.parse.urlparse(self.path).path == "/status":
            self._reply(200, self.server.coordinator.status())
        else:
            self._reply(404, {"error": f"unknown endpoint {self.path}"})

    def do_POST(self) -> None:
        if not self._authorized():
            self._reply(401, {"error": "missing or invalid auth token"})
            return
        parsed = urllib.parse.urlparse(self.path)
        length = int(self.headers.get("Content-Length", 0))
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
            self._reply(200, self._dispatch(parsed, payload))
        except PushIntegrityError as exc:
            self._reply(409, {"error": str(exc)})
        except ConfigurationError as exc:
            self._reply(400, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": f"bad request: {exc!r}"})

    def _dispatch(
        self, parsed: urllib.parse.ParseResult, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        coordinator = self.server.coordinator
        if parsed.path == "/lease":
            reply = coordinator.lease(str(payload["worker"]))
            return {
                "unit": reply.unit.to_json() if reply.unit else None,
                "attempt": reply.attempt,
                "done": reply.done,
            }
        if parsed.path == "/renew":
            worker, unit = str(payload["worker"]), int(payload["unit"])
            return {"ok": coordinator.renew(worker, unit)}
        if parsed.path == "/complete":
            worker, unit = str(payload["worker"]), int(payload["unit"])
            return {"status": coordinator.complete(worker, unit)}
        if parsed.path == "/release":
            worker, unit = str(payload["worker"]), int(payload["unit"])
            return {"ok": coordinator.release(worker, unit)}
        if parsed.path == "/fail":
            worker, unit = str(payload["worker"]), int(payload["unit"])
            error = str(payload.get("error", ""))
            return {"status": coordinator.fail(worker, unit, error)}
        if parsed.path == "/push":
            query = urllib.parse.parse_qs(parsed.query)
            name = query.get("name", ["push"])[0]
            files = payload["files"]
            if not isinstance(files, dict):
                raise ConfigurationError("push body must carry a files mapping")
            digests = payload.get("digests")
            if digests is not None and not isinstance(digests, dict):
                raise ConfigurationError("push digests must be a mapping")
            dest = write_pushed_store(self.server.staging_root, name, files, digests)
            return {"stored": os.path.basename(dest)}
        raise ConfigurationError(f"unknown endpoint {parsed.path}")


class CoordinatorServer:
    """The coordinator's HTTP face: control plane + push receiver.

    Serves a :class:`SweepCoordinator` on ``host:port`` (port 0 = pick
    a free one) from a daemon thread; HTTP pushes land as store dirs
    under ``staging_root``. Use as a context manager.
    """

    def __init__(
        self,
        coordinator: SweepCoordinator,
        staging_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
    ) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _ControlHandler)
        self._httpd.daemon_threads = True
        self._httpd.coordinator = coordinator
        self._httpd.staging_root = os.fspath(staging_root)
        self._httpd.auth_token = auth_token
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """A dialable base URL for workers.

        A wildcard bind (0.0.0.0 / ::) listens everywhere but dials
        nowhere — printing it as the worker join URL sends workers to
        their own loopback. Substitute a name that resolves to this
        host from elsewhere.
        """
        host, port = self._httpd.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = socket.getfqdn() or socket.gethostname()
        if ":" in host:
            host = f"[{host}]"  # bare IPv6 addresses need brackets in URLs
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        # serve_forever checks for shutdown once per poll interval, so
        # its 0.5 s default would make every stop() wait up to that long.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.02},
            name="sweep-coordinator",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class CoordinatorClient:
    """Worker-side control plane client (urllib, JSON verbs).

    Mirrors :class:`SweepCoordinator`'s lease/renew/complete/release/
    fail surface so :func:`run_worker` can drive either one directly
    (an in-process coordinator) or a remote coordinator over HTTP.
    With a ``retry`` policy, every verb rides out transient failures
    (outage, 5xx) itself — use this for callers that are not already
    wrapped in a policy (:func:`run_worker` does its own wrapping so it
    can count retries; give *it* the policy instead).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token
        self.retry = retry

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8")

        def attempt() -> Dict[str, Any]:
            return _http_json(
                f"{self.base_url}{path}", body, self.timeout, token=self.token
            )

        if self.retry is None:
            return attempt()
        return self.retry.call(attempt, label=path.lstrip("/"))

    def lease(self, worker_id: str) -> LeaseReply:
        reply = self._post("/lease", {"worker": worker_id})
        unit = reply.get("unit")
        return LeaseReply(
            WorkUnit.from_json(unit) if unit else None,
            int(reply.get("attempt", 0)),
            bool(reply.get("done", False)),
        )

    def renew(self, worker_id: str, unit_id: int) -> bool:
        return bool(self._post("/renew", {"worker": worker_id, "unit": unit_id})["ok"])

    def complete(self, worker_id: str, unit_id: int) -> str:
        reply = self._post("/complete", {"worker": worker_id, "unit": unit_id})
        return str(reply["status"])

    def release(self, worker_id: str, unit_id: int) -> bool:
        reply = self._post("/release", {"worker": worker_id, "unit": unit_id})
        return bool(reply["ok"])

    def fail(self, worker_id: str, unit_id: int, error: str = "") -> str:
        reply = self._post(
            "/fail", {"worker": worker_id, "unit": unit_id, "error": error}
        )
        return str(reply["status"])

    def status(self) -> Dict[str, Any]:
        return _http_json(
            f"{self.base_url}/status", None, self.timeout, token=self.token
        )


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    control: Any,
    execute: Callable[[WorkUnit, ColumnarStore, Callable[..., None]], Any],
    transport: Transport,
    scratch: str,
    worker_id: Optional[str] = None,
    poll: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, int]:
    """Lease, execute, push, complete — until the coordinator says done.

    ``control`` is anything with the coordinator's lease/renew/complete/
    release/fail verbs (a :class:`SweepCoordinator` in-process, or a
    :class:`CoordinatorClient` over HTTP). ``execute(unit, store,
    renew)`` must run the unit's slice into ``store``, calling ``renew``
    as it makes progress (hang it off ``run_trials``'s per-trial
    ``progress`` hook) so long units outlive their lease TTL. Each
    attempt gets a fresh store under ``scratch`` and a unique push
    name, so retried units never contaminate earlier payloads.

    ``retry`` (default: one attempt, no patience) wraps every
    control-plane verb and the push, so a worker given a real policy
    rides out a coordinator restart — ``--resume`` brings the control
    plane back inside the backoff window and the fleet never notices.
    Only when the retry budget is exhausted does the loop end: by then
    the coordinator has either finished or died for good, and idling
    forever helps neither case. Retries are counted in
    ``stats["retries"]``.

    A failing ``execute`` no longer kills the worker: the failure is
    reported through the ``fail`` verb (counted in ``stats["failed"]``)
    so the coordinator can requeue the unit — or quarantine it after
    ``max_attempts`` — and the loop moves on to the next lease. Two
    exceptions stay fatal: :class:`AuthenticationError` (a token
    mismatch surfacing through the renew hook must be fixed, not
    retried under an anonymous label) and ``BaseException``\\ s like
    ``KeyboardInterrupt`` (the lease is released — counted in
    ``stats["released"]`` — and the exception propagates).

    The idle-poll sleep is jittered per worker id on a deterministic
    schedule: a lockstep fleet would otherwise hammer ``/lease`` in
    synchronized waves every ``poll`` seconds forever.
    """
    worker_id = worker_id or default_worker_id()
    os.makedirs(scratch, exist_ok=True)
    if retry is None:
        retry = RetryPolicy(attempts=1, seed=worker_id, sleep=sleep)
    stats = {
        "completed": 0,
        "late": 0,
        "idle_polls": 0,
        "retries": 0,
        "released": 0,
        "failed": 0,
    }

    def count_retry() -> None:
        stats["retries"] += 1

    def call(label: str, fn: Callable[[], Any]) -> Any:
        return retry.call(fn, label=label, on_retry=count_retry)

    while True:
        try:
            reply = call("lease", lambda: control.lease(worker_id))
        except RetryableError:
            break
        if reply.unit is None:
            if reply.done:
                break
            jitter = deterministic_uniform(stats["idle_polls"], "idle-poll", worker_id)
            stats["idle_polls"] += 1
            sleep(poll * (0.5 + jitter))
            continue
        unit, attempt = reply.unit, reply.attempt
        store_root = os.path.join(scratch, f"u{unit.unit_id:04d}-a{attempt:02d}")
        store = ColumnarStore(store_root)

        def renew(*_ignored: Any) -> None:
            try:
                control.renew(worker_id, unit.unit_id)
            except RetryableError:
                pass  # the push/complete below will surface the outage

        try:
            execute(unit, store, renew)
            store.close()
        except AuthenticationError:
            # A token mismatch surfacing mid-trial (through the renew
            # hook) is a configuration bug, not a compute failure:
            # reporting it via /fail would 401 too. Die loudly.
            store.close()
            raise
        except Exception as exc:
            # Report the compute failure and keep working: the
            # coordinator requeues the unit for another try (maybe the
            # crash was environmental) or quarantines it once the
            # attempt cap is hit. The scratch store is kept for
            # debugging.
            store.close()
            stats["failed"] += 1
            try:
                call(
                    "fail",
                    lambda: control.fail(
                        worker_id,
                        unit.unit_id,
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
            except RetryableError:
                break
            continue
        except BaseException:
            # KeyboardInterrupt and friends: release the lease so
            # another worker takes over now rather than after TTL
            # expiry, then get out of the way.
            store.close()
            try:
                control.release(worker_id, unit.unit_id)
            except RetryableError:
                pass
            stats["released"] += 1
            raise
        push_name = f"u{unit.unit_id:04d}-a{attempt:02d}-{worker_id}"
        try:
            call("push", lambda: transport.push(store_root, push_name))
        except RetryableError:
            # The coordinator died mid-push and stayed dead through the
            # whole retry budget: end the loop like the lease path does
            # (the scratch store stays on disk; a --resume'd
            # coordinator will re-lease the unit).
            break
        except BaseException:
            # A non-retryable push failure strands the unit otherwise:
            # release it so another worker takes over now. The scratch
            # store is kept for debugging.
            try:
                control.release(worker_id, unit.unit_id)
            except RetryableError:
                pass
            stats["released"] += 1
            raise
        # The push is durably staged: the per-attempt scratch store has
        # done its job. Without this, a long-lived worker's scratch
        # directory grows by one store per attempt, without bound.
        shutil.rmtree(store_root, ignore_errors=True)
        try:
            verdict = call(
                "complete", lambda: control.complete(worker_id, unit.unit_id)
            )
        except RetryableError:
            break
        stats["completed"] += 1
        if verdict == "late":
            stats["late"] += 1
    return stats


def wait_until_done(
    coordinator: SweepCoordinator,
    poll: float = 0.2,
    sleep: Callable[[float], None] = time.sleep,
    timeout: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Block until every unit completes, expiring stale leases as we go.

    Workers trigger lazy expiry through their own lease polls, but a
    coordinator whose last worker died would otherwise never notice;
    this loop is that heartbeat. ``timeout`` (seconds) turns a stalled
    fleet into a loud error instead of an eternal hang.
    """
    deadline = None if timeout is None else clock() + timeout
    while not coordinator.done:
        coordinator.expire()
        if deadline is not None and clock() > deadline:
            raise ConfigurationError(
                f"sweep did not complete within {timeout}s: "
                f"{coordinator.status()!r}"
            )
        sleep(poll)
