"""Deterministic fault injection for the distributed sweep stack.

``scripts_coordinated_smoke.py`` proves the coordinator survives one
SIGKILL; this module makes *whole fault weather* reproducible. A
:class:`FaultPlan` is a seeded schedule of failures — BLAKE2b in
counter mode, the same discipline as :mod:`repro.randomness.block`, so
the k-th decision for a given (seed, scope, label) is a pure function
of those four values and nothing else: no global RNG, no wall clock,
bit-identical across processes and reruns. :class:`FlakyControl` and
:class:`FlakyTransport` wrap the worker-side control plane and push
path and spend that schedule on dropped requests, injected HTTP 503s,
delays, duplicated calls, and mid-push truncation.

The injected faults are *real* from the stack's point of view: a
dropped lease raises the same :class:`~repro.sim.batch.distrib.
CoordinatorUnavailable` a dead socket would, a truncated push is
rejected by the receiver's digest check exactly like genuine wire
corruption, and a duplicated completion exercises the same idempotency
the TTL/retry machinery depends on. A sweep that stays byte-identical
under an aggressive plan (the ``--chaos`` smoke) therefore certifies
the production retry/quarantine paths, not a parallel test-only world.

Everything here is worker-side and wrapper-shaped: production code in
:mod:`repro.sim.batch.distrib` never imports this module.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...randomness.block import key_prefix
from .distrib import (
    CoordinatorUnavailable,
    LeaseReply,
    RetryableError,
    Transport,
    _store_digests,
    _store_files,
    deterministic_uniform,
)

#: Fault kinds FlakyControl understands (FlakyTransport adds "truncate").
CONTROL_KINDS = ("drop", "delay", "duplicate", "error")
PUSH_KINDS = CONTROL_KINDS + ("truncate",)


class RoundFaultPlan:
    """Seeded per-round *simulation* faults: crash, loss, edge churn.

    Where :class:`FaultPlan` breaks the sweep control plane, this plan
    breaks the simulated network itself — the adversarial workloads the
    scenario layer opens (``crash-midround``, ``lossy-congest``,
    ``edge-churn``). Every decision is the same BLAKE2b counter-mode
    discipline: a pure function of (seed, round, endpoints), so a
    faulty run is exactly as reproducible as a clean one — across
    worker counts, stores, and reruns.

    Semantics (what :class:`~repro.sim.batch.array.ArrayEngine` applies
    when handed a plan; the tests' reference engine applies the same
    decisions one message at a time):

    * ``crash`` — per node per round, the probability the node dies
      *during* that round's send phase. A crashing node still runs its
      step (it draws its randomness, and may finish and keep its
      output), but each of its outgoing messages independently escapes
      with probability 1/2 (:meth:`escape_mask` — the "mid-round" in
      crash-midround) and only escaped ones are charged; the node never
      steps again and its output stays whatever it had.
    * ``loss`` — per message per delivery round, the probability it is
      silently dropped in transit (CONGEST omission). The sender still
      pays for it in the message/bit accounting.
    * ``churn`` — per *edge* per round, the probability the edge is
      down for that round; both directions drop together (a dynamic
      graph, re-sampled every round).
    * ``start_round`` — crashes and drops begin at this round (default
      1, the first step round), so an algorithm's setup can be kept
      clean.

    The decisions take endpoint arrays (:meth:`crash_mask`,
    :meth:`escape_mask`, :meth:`drop_mask`); each entry is one
    :func:`~repro.sim.batch.distrib.deterministic_uniform` draw of
    (round, label, seed, endpoints). Each (label, seed, endpoints) key
    is hashed once for the plan's lifetime — one run's weather — so a
    round costs one keyed BLAKE2b per decision.
    """

    def __init__(
        self,
        seed: Any,
        crash: float = 0.0,
        loss: float = 0.0,
        churn: float = 0.0,
        start_round: int = 1,
    ) -> None:
        for name, rate in (("crash", crash), ("loss", loss), ("churn", churn)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if start_round < 1:
            raise ConfigurationError(f"start_round must be >= 1, got {start_round}")
        self.seed = seed
        self.crash = crash
        self.loss = loss
        self.churn = churn
        self.start_round = start_round
        #: label -> endpoints -> derive_key("sweep-chaos", label, seed,
        #: *endpoints), filled by the array forms on first use.
        self._keys: Dict[str, Dict[Tuple[int, ...], bytes]] = {}

    @property
    def active(self) -> bool:
        """Whether any rate is non-zero (a zero plan is a no-op)."""
        return bool(self.crash or self.loss or self.churn)

    def _uniforms(self, round_index: int, label: str, *endpoints) -> np.ndarray:
        """``deterministic_uniform(round_index, label, seed, *ends)`` for
        each tuple ``ends`` of the zipped ``endpoints`` arrays."""
        keys = self._keys.setdefault(label, {})
        prefix = key_prefix("sweep-chaos", label, self.seed)
        counter = round_index.to_bytes(8, "big")
        out = []
        for ends in zip(*(np.asarray(e).tolist() for e in endpoints)):
            key = keys.get(ends)
            if key is None:
                state = prefix.copy()
                for part in ends:
                    text = str(part).encode()
                    state.update(len(text).to_bytes(4, "big") + text)
                key = keys[ends] = state.digest()
            digest = hashlib.blake2b(counter, key=key, digest_size=8).digest()
            out.append(int.from_bytes(digest, "big") / 2**64)
        return np.array(out, dtype=np.float64)

    def crash_mask(self, round_index: int, nodes) -> np.ndarray:
        """Does each of ``nodes`` crash during this round's sends?"""
        nodes = np.asarray(nodes)
        if not self.crash or round_index < self.start_round:
            return np.zeros(nodes.shape, dtype=bool)
        return self._uniforms(round_index, "sim-crash", nodes) < self.crash

    def escape_mask(self, round_index: int, senders, targets) -> np.ndarray:
        """Does each (sender, target) send of a crashing sender escape?"""
        return self._uniforms(round_index, "sim-crash-send", senders, targets) < 0.5

    def drop_mask(self, round_index: int, senders, targets) -> np.ndarray:
        """Is each (sender, target) message of this round lost?

        Loss is directional (per message); churn is symmetric (both
        directions of a down edge drop in the same round).
        """
        senders = np.asarray(senders)
        targets = np.asarray(targets)
        dropped = np.zeros(senders.shape, dtype=bool)
        if round_index < self.start_round:
            return dropped
        if self.loss:
            lost = self._uniforms(round_index, "sim-loss", senders, targets)
            dropped |= lost < self.loss
        if self.churn:
            low, high = np.minimum(senders, targets), np.maximum(senders, targets)
            dropped |= self._uniforms(round_index, "sim-churn", low, high) < self.churn
        return dropped


class FaultPlan:
    """A seeded, counter-mode schedule of fault decisions.

    ``decide(label)`` returns the next fault kind for that label (or
    ``None`` for a clean call), advancing a per-label counter. The k-th
    decision is ``u = U(seed, scope, label, k)`` mapped through the
    cumulative rate thresholds in sorted-kind order, so a plan is fully
    determined by its constructor arguments: two workers given the same
    seed but different ``scope`` strings (say, their worker ids) see
    different — but individually reproducible — weather.

    ``rates`` maps kind name to probability; the sum must stay <= 1
    (the remainder is the clean-call probability). ``delay_seconds`` is
    how long a "delay" decision stalls.
    """

    def __init__(
        self,
        seed: Any,
        scope: str = "",
        delay_seconds: float = 0.02,
        **rates: float,
    ) -> None:
        total = 0.0
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {kind!r} must be in [0, 1], got {rate}"
                )
            total += rate
        if total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"fault rates sum to {total}, which exceeds 1: {rates}"
            )
        if delay_seconds < 0:
            raise ConfigurationError(f"delay_seconds must be >= 0, got {delay_seconds}")
        self.seed = seed
        self.scope = scope
        self.delay_seconds = delay_seconds
        self.rates = dict(rates)
        self._kinds = sorted(kind for kind, rate in rates.items() if rate > 0)
        self._counters: Dict[str, int] = {}

    def _decision(self, label: str, counter: int) -> Optional[str]:
        u = deterministic_uniform(counter, "fault-plan", self.seed, self.scope, label)
        acc = 0.0
        for kind in self._kinds:
            acc += self.rates[kind]
            if u < acc:
                return kind
        return None

    def decide(self, label: str) -> Optional[str]:
        """The next fault kind for ``label`` (None = clean), advancing."""
        counter = self._counters.get(label, 0)
        self._counters[label] = counter + 1
        return self._decision(label, counter)

    def preview(self, label: str, count: int) -> List[Optional[str]]:
        """Decisions 0..count-1 for ``label``, without advancing anything."""
        return [self._decision(label, i) for i in range(count)]


class FlakyControl:
    """A control-plane proxy that loses, delays, and duplicates verbs.

    Wraps anything with the coordinator's lease/renew/complete/release/
    fail/status surface (a :class:`~repro.sim.batch.distrib.
    SweepCoordinator` in-process or a :class:`~repro.sim.batch.distrib.
    CoordinatorClient` over HTTP). Per verb, the plan decides:

    * ``drop`` — the request never arrives: raise
      :class:`CoordinatorUnavailable` without touching the coordinator.
    * ``error`` — the coordinator answers HTTP 503: raise
      :class:`RetryableError`, again without a state change.
    * ``delay`` — stall ``plan.delay_seconds`` before the real call.
    * ``duplicate`` — perform the call twice and return the first
      result, exercising verb idempotency (a duplicated ``complete``
      must come back "duplicate", a duplicated ``fail`` "ignored").
      ``lease`` is exempt — duplicating it would strand a second unit
      until TTL expiry, which tests lease *plenty* but makes schedules
      needlessly slow — and is delayed instead.
    """

    def __init__(
        self,
        control: Any,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._control = control
        self.plan = plan
        self._sleep = sleep

    def _call(self, verb: str, call: Callable[[], Any], duplicable: bool = True) -> Any:
        kind = self.plan.decide(verb)
        if kind == "drop":
            raise CoordinatorUnavailable(f"injected fault: {verb} request dropped")
        if kind == "error":
            raise RetryableError(f"injected fault: HTTP 503 on {verb}")
        if kind == "delay" or (kind == "duplicate" and not duplicable):
            self._sleep(self.plan.delay_seconds)
            return call()
        if kind == "duplicate":
            first = call()
            call()
            return first
        return call()

    def lease(self, worker_id: str) -> LeaseReply:
        return self._call(
            "lease", lambda: self._control.lease(worker_id), duplicable=False
        )

    def renew(self, worker_id: str, unit_id: int) -> bool:
        return self._call("renew", lambda: self._control.renew(worker_id, unit_id))

    def complete(self, worker_id: str, unit_id: int) -> str:
        return self._call(
            "complete", lambda: self._control.complete(worker_id, unit_id)
        )

    def release(self, worker_id: str, unit_id: int) -> bool:
        return self._call("release", lambda: self._control.release(worker_id, unit_id))

    def fail(self, worker_id: str, unit_id: int, error: str = "") -> str:
        return self._call("fail", lambda: self._control.fail(worker_id, unit_id, error))

    def status(self) -> Dict[str, Any]:
        return self._call("status", self._control.status)


class FlakyTransport(Transport):
    """A push path that drops, stalls, duplicates, and truncates.

    Wraps a real :class:`~repro.sim.batch.distrib.Transport`. The
    interesting kind is ``truncate``: the store's files and digests are
    computed honestly, then one file (the largest — in practice the
    only one, ``tail.jsonl``) is cut in half *after* digest
    computation, modeling a connection that died mid-body. The
    receiver's digest verification must reject the payload
    (:class:`~repro.sim.batch.distrib.PushIntegrityError`), the retry
    re-reads the intact store from disk, and the retried push
    converges.
    """

    name = "flaky"

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep

    @staticmethod
    def _truncated(files: Dict[str, str]) -> Tuple[Dict[str, str], str]:
        victim = max(sorted(files), key=lambda rel: len(files[rel]))
        corrupted = dict(files)
        corrupted[victim] = files[victim][: len(files[victim]) // 2]
        return corrupted, victim

    def push(self, store_root: str, name: str) -> str:
        files = _store_files(store_root)
        digests = _store_digests(files)
        kind = self.plan.decide("push")
        if kind == "drop":
            raise CoordinatorUnavailable("injected fault: push dropped")
        if kind == "error":
            raise RetryableError("injected fault: HTTP 503 on push")
        if kind == "truncate":
            corrupted, victim = self._truncated(files)
            if corrupted[victim] == files[victim]:
                # Nothing to cut (empty store): deliver cleanly rather
                # than stage a "corruption" the digests would accept.
                return self.inner._deliver(name, files, digests)
            return self.inner._deliver(name, corrupted, digests)
        if kind == "delay":
            self._sleep(self.plan.delay_seconds)
            return self.inner._deliver(name, files, digests)
        if kind == "duplicate":
            first = self.inner._deliver(name, files, digests)
            self.inner._deliver(name, files, digests)
            return first
        return self.inner._deliver(name, files, digests)
