"""Seed-sweep fan-out: run many simulation trials across processes.

The experiments (``repro.analysis.experiments``) and benchmarks all share
one shape: build a graph from a (family, size, seed) triple, run an
algorithm, collect a handful of scalar metrics, aggregate over seeds.
:func:`run_trials` is that shape as infrastructure — a picklable task
function is mapped over a grid of :class:`TrialSpec`\\ s, optionally
across a ``multiprocessing`` pool, and the results come back in grid
order regardless of worker count (so ``workers=1`` and ``workers=8``
are result-for-result identical; see ``tests/test_batch_runner.py``).

Tasks must be module-level functions (the pool pickles them by
reference) and must derive all randomness from ``spec.seed`` — never
from global state — or cross-worker determinism is lost.

The bundled tasks (:mod:`repro.sim.batch.tasks`) memoize graph builds
per worker process and key the memo seed-free for seed-invariant
families and ID schemes, so a sweep constructs each distinct graph
(and its CSR topology) once per worker. That changes no result byte —
the memo only skips redundant identical builds.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ...errors import ConfigurationError

#: Environment knob consulted when an API's ``workers`` is None.
WORKERS_ENV = "REPRO_WORKERS"

#: Per-trial completion callback: called as ``progress(spec, result)``
#: after each *freshly computed* trial (never for cache hits), in grid
#: order. Distributed workers use it to renew their lease mid-unit
#: (:mod:`repro.sim.batch.distrib`); it must not affect results.
Progress = Callable[["TrialSpec", "TrialResult"], None]


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """One cell of a sweep grid: a topology plus a seed plus knobs.

    ``family``/``n`` name the graph (by convention a
    :data:`repro.graphs.generators.FAMILIES` key, but tasks are free to
    interpret them — e.g. E3 uses ``family`` for its randomness regime).
    ``params`` carries task-specific knobs (phases, caps, radii, ...).

    ``params`` is canonicalized on construction: pairs become tuples,
    sorted by key. Two equal specs therefore always have identical
    field values however they were built — directly or via :meth:`of` —
    which is what makes them safe as durable-store keys
    (:mod:`repro.sim.batch.store`).
    """

    family: str
    n: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        canonical = tuple(sorted((tuple(pair) for pair in self.params),
                                 key=lambda pair: pair[0]))
        object.__setattr__(self, "params", canonical)

    @classmethod
    def of(cls, family: str, n: int, seed: int, **params: Any) -> "TrialSpec":
        """Build a spec with keyword params (stored sorted, hashable)."""
        return cls(family, n, seed, tuple(params.items()))

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one knob."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def kwargs(self) -> Dict[str, Any]:
        """All knobs as a dict."""
        return dict(self.params)


@dataclasses.dataclass
class TrialResult:
    """A task's verdict for one spec: success flag plus scalar metrics.

    ``data`` must contain only comparable, picklable scalars (numbers,
    strings, bools, small tuples) so results can cross process
    boundaries and be compared for exact equality in determinism tests.
    """

    spec: TrialSpec
    ok: bool
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)


def grid(families: Iterable[str], sizes: Iterable[int],
         seeds: Iterable[int], **params: Any) -> List[TrialSpec]:
    """The full cross product as a flat, deterministic spec list."""
    return [TrialSpec.of(family, n, seed, **params)
            for family in families for n in sizes for seed in seeds]


def resolve_workers(workers: Optional[int]) -> int:
    """None -> $REPRO_WORKERS or 1; always at least 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"${WORKERS_ENV} must be an integer, got {raw!r}"
            ) from exc
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def default_chunksize(num_tasks: int, workers: int) -> int:
    """Pool chunk size balancing IPC overhead against load balance.

    One task per chunk pays a pickle round-trip per trial; one chunk
    per worker loses all balancing. Eight chunks per worker is the
    usual compromise. Chunking never affects results or their order —
    only how specs are batched onto workers.
    """
    return max(1, num_tasks // (max(1, workers) * 8))


def check_shard(index: int, count: int) -> None:
    """Validate a ``(shard index, shard count)`` pair."""
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must be in [0, {count}), got {index}")


def shard(specs: Sequence[TrialSpec], index: int, count: int) -> List[TrialSpec]:
    """Deterministic slice ``index`` of ``count``: every count-th spec.

    The ``count`` slices partition the grid — disjoint, exhaustive, and
    order-preserving — and depend only on grid positions, never on what
    any host has already computed. Independent hosts can therefore each
    run ``shard(specs, i, count)`` into their own store and the merged
    stores cover the grid exactly once (see
    :func:`repro.sim.batch.store.merge_stores`).

    ``count`` must not exceed ``len(specs)``: a larger count would leave
    at least one slice empty, which almost always means a mis-sized
    fleet (hosts idling while others work), so it is rejected loudly.
    Note ``run_trials(shard=...)`` deliberately does *not* enforce this
    — one shard pair there applies to every grid inside a driver, and
    grids smaller than the host count are legitimately left with empty
    slices on some hosts.
    """
    check_shard(index, count)
    specs = list(specs)
    if count > len(specs):
        raise ConfigurationError(
            f"shard count {count} exceeds the grid: {len(specs)} spec(s) "
            f"cannot give every slice at least one spec — use a smaller "
            f"count or a larger grid")
    return specs[index::count]


def task_name_of(task: Callable[..., Any], task_name: Optional[str]) -> str:
    """The store namespace for ``task``: explicit name or module path."""
    if task_name is not None:
        return task_name
    module = getattr(task, "__module__", None) or "<unknown>"
    qualname = getattr(task, "__qualname__", None) or repr(task)
    return f"{module}.{qualname}"


def run_trials(task: Callable[[TrialSpec], TrialResult],
               specs: Sequence[TrialSpec],
               workers: Optional[int] = None,
               chunksize: Optional[int] = None,
               store: Optional[Any] = None,
               task_name: Optional[str] = None,
               shard: Optional[Tuple[int, int]] = None,
               progress: Optional[Progress] = None) -> List[TrialResult]:
    """Map ``task`` over ``specs``, fanning across processes.

    Results are returned in ``specs`` order. With ``workers=1`` (the
    default) everything runs in-process — no pickling, easy debugging.
    ``workers=None`` consults ``$REPRO_WORKERS``. The pool size is
    capped at the number of specs to run so tiny sweeps don't pay fork
    overhead for idle workers. ``chunksize=None`` picks
    :func:`default_chunksize`; any chunking returns identical results
    in identical order.

    ``store`` (a :class:`repro.sim.batch.colstore.ColumnarStore`) makes the
    sweep durable: cached results are reused, fresh ones are appended
    to the store the moment each completes — in grid order, so an
    interrupted sweep resumes from its partial results and finishes
    with results, aggregates, and store contents identical to an
    uninterrupted run. ``task_name`` namespaces the cache (default: the
    task's module-qualified name). ``shard=(index, count)`` — store
    required — computes only the grid positions owned by that shard
    (``index::count``); positions owned by other shards that are not
    already cached come back as placeholder results (``ok=False``,
    empty ``data``) and are never written to the store.

    ``progress`` is called as ``progress(spec, result)`` after each
    freshly computed trial, in grid order — never for cache hits, and
    after the store append when a store is in play, so a progress
    signal always refers to durable work. Distributed workers hang
    lease renewal off it (:mod:`repro.sim.batch.distrib`).
    """
    specs = list(specs)
    if shard is not None:
        shard_index, shard_count = shard
        check_shard(shard_index, shard_count)
        if store is None:
            raise ConfigurationError(
                "shard= requires store=: a sharded run only computes a "
                "slice, which is only useful when persisted for a merge")
    if store is None:
        workers = min(resolve_workers(workers), max(1, len(specs)))
        if workers == 1 or len(specs) <= 1:
            results = []
            for spec in specs:
                result = task(spec)
                if progress is not None:
                    progress(spec, result)
                results.append(result)
            return results
        size = (default_chunksize(len(specs), workers)
                if chunksize is None else max(1, chunksize))
        with multiprocessing.Pool(processes=workers) as pool:
            if progress is None:
                return pool.map(task, specs, chunksize=size)
            results = []
            for spec, result in zip(specs, pool.imap(task, specs,
                                                     chunksize=size)):
                progress(spec, result)
                results.append(result)
            return results

    name = task_name_of(task, task_name)
    flush = getattr(store, "flush", None)
    stored = len(store) if flush is not None else 0
    # Validate up front: a bad workers value must fail on a warm cache
    # exactly as it would on a cold one.
    workers = resolve_workers(workers)
    results: List[Optional[TrialResult]] = [None] * len(specs)
    positions: Dict[TrialSpec, List[int]] = {}
    to_run: List[TrialSpec] = []
    for i, spec in enumerate(specs):
        cached = store.get(name, spec)
        if cached is not None:
            results[i] = cached
            continue
        owned = shard is None or i % shard_count == shard_index
        if spec in positions:
            positions[spec].append(i)
        elif owned:
            positions[spec] = [i]
            to_run.append(spec)

    if to_run:
        workers = min(workers, len(to_run))
        if workers == 1 or len(to_run) == 1:
            for spec in to_run:
                result = task(spec)
                store.put(name, spec, result)
                if progress is not None:
                    progress(spec, result)
                for i in positions[spec]:
                    results[i] = result
        else:
            size = (default_chunksize(len(to_run), workers)
                    if chunksize is None else max(1, chunksize))
            with multiprocessing.Pool(processes=workers) as pool:
                # imap (not map): results arrive in grid order and each
                # is checkpointed as it lands, so a kill loses at most
                # the in-flight chunk — the resume story.
                for spec, result in zip(to_run,
                                        pool.imap(task, to_run,
                                                  chunksize=size)):
                    store.put(name, spec, result)
                    if progress is not None:
                        progress(spec, result)
                    for i in positions[spec]:
                        results[i] = result
    # Pack the rows this sweep added into a segment now that it is
    # complete; every put above was already individually durable. A
    # sweep that added nothing leaves the tail alone: after a crash it
    # holds the rows of the sweep that was cut short, and that sweep's
    # own rerun packs them where an uninterrupted run would have.
    if flush is not None and len(store) != stored:
        flush()
    done: List[TrialResult] = []
    for i, result in enumerate(results):
        if result is None:
            result = TrialResult(specs[i], False, {})
        done.append(result)
    return done


def aggregate(results: Iterable[TrialResult],
              by: Tuple[str, ...] = ("family", "n")) -> List[Dict[str, Any]]:
    """Group results and summarize: success rate plus per-metric min/mean/max.

    ``by`` names :class:`TrialSpec` fields to group on. Non-numeric data
    values are skipped (only counted metrics are numeric scalars), and so
    are booleans: they are verdicts, not metrics — averaging them hides
    failures that ``ok``/``success`` already report, so a bool-valued
    data entry never produces ``(min)/(mean)/(max)`` columns.
    """
    groups: Dict[Tuple, List[TrialResult]] = {}
    order: List[Tuple] = []
    for result in results:
        key = tuple(getattr(result.spec, field) for field in by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(result)

    rows: List[Dict[str, Any]] = []
    for key in order:
        bucket = groups[key]
        row: Dict[str, Any] = dict(zip(by, key))
        row["trials"] = len(bucket)
        row["success"] = sum(1 for r in bucket if r.ok) / len(bucket)
        metrics: Dict[str, List[float]] = {}
        for result in bucket:
            for name, value in result.data.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    metrics.setdefault(name, []).append(value)
        for name in sorted(metrics):
            values = metrics[name]
            row[f"{name}(min)"] = min(values)
            row[f"{name}(mean)"] = sum(values) / len(values)
            row[f"{name}(max)"] = max(values)
        rows.append(row)
    return rows
