"""Trial-store keys, record encoding, and the store-level operations.

:func:`~repro.sim.batch.runner.run_trials` recomputes everything on
every call, so a killed full-profile regeneration used to lose hours of
work. A trial store — :class:`~repro.sim.batch.colstore.ColumnarStore`
is the one implementation — is the fix: a content-addressed on-disk
cache of completed :class:`~repro.sim.batch.runner.TrialResult`\\ s.
This module holds what is independent of its layout:

* **Key** — ``blake2b`` of the canonical JSON of
  ``(task_name, TrialSpec, RESULT_FORMAT_VERSION)``
  (:func:`spec_key`). Specs canonicalize their params on construction
  (sorted tuples), so equal specs can never produce distinct keys, and
  the version constant is bumped whenever result derivation changes so
  stale caches go cold instead of silently serving old numbers.
* **Record** — one JSON object per trial (version, task, key, spec,
  ok, data). Result ``data`` is encoded with tuple tagging
  (``{"__tuple__": [...]}``) so the documented scalar palette of
  :class:`TrialResult` (numbers, strings, bools, small tuples) survives
  JSON byte-identically; a cached result compares equal to a freshly
  computed one.
* **Durable JSONL** — :func:`append_jsonl` appends one record line
  with flush+fsync, and :func:`read_jsonl` skips torn trailing lines,
  so a crash mid-append loses at most the record being written. The
  store's ingest tail and the coordinator's journal both use them.
* **Legacy input** — :func:`legacy_records` reads the JSONL-shard
  directories older builds wrote, once, for
  :func:`~repro.sim.batch.colstore.compact` to upgrade.

Sharding across hosts composes with the cache:
:func:`~repro.sim.batch.runner.shard` deterministically partitions a
grid by position, each host runs its slice into its own store, and
:func:`merge_stores` combines the stores into one — deduplicating
identical records and refusing conflicting ones — after which a final
``run_trials(..., store=merged)`` serves the whole grid from cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, IO, Iterable, Iterator, Optional, Union

from ...errors import ConfigurationError
from .runner import TrialResult, TrialSpec, check_shard, shard  # noqa: F401

#: Bump whenever the meaning or derivation of stored results changes
#: (engine semantics, randomness derivation, metric definitions): keys
#: embed it, so old records become unreachable rather than wrong.
RESULT_FORMAT_VERSION = 1

#: The shard directory of a legacy JSONL store (see :func:`legacy_records`).
LEGACY_SHARD_DIR = "shards"
_TUPLE_TAG = "__tuple__"


def _encode(value: Any) -> Any:
    """JSON-ready form of a spec/result value, tuples tagged for round trip."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"trial data keys must be strings, got {key!r}")
            if key == _TUPLE_TAG:
                raise ConfigurationError(
                    f"trial data key {_TUPLE_TAG!r} is reserved")
            out[key] = _encode(item)
        return out
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} is not storable; "
        f"trial specs and data must hold JSON scalars, tuples, lists, dicts")


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode(v) for v in value[_TUPLE_TAG])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def canonical_spec(spec: TrialSpec) -> Dict[str, Any]:
    """The spec as a canonical JSON-ready dict (params already sorted)."""
    return {
        "family": spec.family,
        "n": spec.n,
        "seed": spec.seed,
        "params": [[key, _encode(value)] for key, value in spec.params],
    }


def spec_key(task_name: str, spec: TrialSpec,
             version: int = RESULT_FORMAT_VERSION) -> str:
    """Content address of one trial: hash of (task, canonical spec, version)."""
    payload = json.dumps(
        {"task": task_name, "version": version, "spec": canonical_spec(spec)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def record_digest(record: Dict[str, Any]) -> str:
    """Content address of one raw store record (order-insensitive).

    Hex BLAKE2b-128 of the record's canonical JSON (sorted keys), used
    by merge-conflict reports: two records with the same trial key but
    different digests are two stores disagreeing about a deterministic
    computation, and the digests let the operator identify *which*
    store copies differ without diffing full payload dumps.
    """
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def file_digest(text: str) -> str:
    """Content address of one store file: hex BLAKE2b-128 of its UTF-8 bytes.

    Used by the push transports (:mod:`repro.sim.batch.distrib`) to
    verify that a shipped store arrived intact: the sender digests each
    file before transmission, the receiver re-digests on receipt, and a
    truncated or corrupted payload is rejected instead of staged.
    """
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def open_jsonl_append(path: Union[str, os.PathLike]) -> IO[str]:
    """Open ``path`` for appending JSONL records, healing a torn tail.

    A crash mid-append can leave the file without a trailing newline;
    terminate the torn line first, or the next record would fuse with
    it and both lines would be lost on load. Shared by the store's
    ingest tail and the coordinator's write-ahead journal
    (:mod:`repro.sim.batch.distrib`).
    """
    path = os.fspath(path)
    torn = False
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as existing:
            existing.seek(-1, os.SEEK_END)
            torn = existing.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if torn:
        handle.write("\n")
    return handle


def jsonl_line(record: Dict[str, Any]) -> str:
    """One record as the exact JSON line :func:`append_jsonl` writes."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def append_jsonl(handle: IO[str], record: Dict[str, Any]) -> None:
    """Append one record as a JSON line with flush+fsync durability."""
    handle.write(jsonl_line(record))
    handle.flush()
    os.fsync(handle.fileno())


def read_jsonl(path: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """Parsed dict records from a JSONL file, torn/blank lines skipped.

    A line that fails to parse was never acknowledged (a torn write
    from a crash mid-append), so skipping it is the correct resume
    semantics; non-dict lines are foreign and skipped too. A missing
    file yields nothing.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


def legacy_records(root: Union[str, os.PathLike]) -> Iterator[Dict[str, Any]]:
    """The records of a legacy JSONL-shard store, read once, in load order.

    Stores written before the columnar layout are a ``shards/``
    directory of one JSONL file per task plus an ``index.json``
    summary. Nothing writes that layout any more; ``compact``
    (:mod:`repro.sim.batch.colstore`) upgrades it through this reader.
    Shard files are read in sorted name order and lines in file order;
    the first copy of a key wins, and torn lines (a crash mid-append)
    and foreign lines (no string ``key`` or no ``task``) are skipped.
    """
    shard_dir = os.path.join(os.fspath(root), LEGACY_SHARD_DIR)
    seen = set()
    for name in sorted(os.listdir(shard_dir)):
        if not name.endswith(".jsonl"):
            continue
        for record in read_jsonl(os.path.join(shard_dir, name)):
            key = record.get("key")
            if not isinstance(key, str) or "task" not in record or key in seen:
                continue
            seen.add(key)
            yield record


class ReadThroughStore:
    """A layered store: misses in ``primary`` fall back to ``fallback``.

    Speaks the same ``get``/``put``/``flush`` protocol ``run_trials``
    uses, so it can stand anywhere a store does. A fallback hit
    is copied forward into ``primary`` at lookup time — and because
    encoding is deterministic and lookups happen in grid order, a sweep
    replayed through a read-through layer writes ``primary`` with
    exactly the bytes a single-host run would have written. That repack
    is how the sweep coordinator (:mod:`repro.sim.batch.distrib`) turns
    an arbitrarily-ordered merge of worker shard stores into a final
    store byte-identical to the unsharded baseline.

    ``fallback`` is never written to. The columnar layout keeps the
    byte-identity argument: segments are packed in insertion order at
    the same flush points (``run_trials`` flushes when a sweep that
    added rows ends), so the same puts in the same order pack the same
    segments.
    """

    def __init__(self, primary: Any, fallback: Any) -> None:
        self.primary = primary
        self.fallback = fallback

    def get(self, task_name: str, spec: TrialSpec) -> Optional[TrialResult]:
        result = self.primary.get(task_name, spec)
        if result is None:
            result = self.fallback.get(task_name, spec)
            if result is not None:
                self.primary.put(task_name, spec, result)
        return result

    def put(self, task_name: str, spec: TrialSpec,
            result: TrialResult) -> None:
        self.primary.put(task_name, spec, result)

    def flush(self) -> None:
        """Pack the primary's buffered tail rows into a segment."""
        self.primary.flush()

    def __len__(self) -> int:
        return len(self.primary)


def merge_stores(dest: Any,
                 sources: Iterable[Union[Any, str, os.PathLike]],
                 ) -> Dict[str, int]:
    """Fold source stores into the columnar store ``dest``, deterministically.

    Sources are processed in the given order, records in each source's
    insertion order, so merging the same stores always yields the same
    destination. A record whose key already exists is checked for
    payload equality: identical records (two hosts computed the same
    trial) are skipped, conflicting ones raise with the first
    conflicting trial key and both record digests — a conflict means
    two stores disagree about a deterministic computation, which is a
    bug worth stopping for, not papering over, and the digests say
    which copies to go look at.

    Sources are :class:`~repro.sim.batch.colstore.ColumnarStore`\\ s or
    their paths; each is folded in by whole-column adoption
    (``ColumnarStore._adopt_from``), segments and tail rows alike.

    An empty source list is rejected: a merge of nothing would report
    success while leaving ``dest`` unchanged, which in every observed
    case meant a glob or worker fleet produced no stores — an error the
    caller needs to hear about, not a no-op.
    """
    from .colstore import ColumnarStore

    sources = list(sources)
    if not sources:
        raise ConfigurationError(
            "merge_stores needs at least one source store; an empty "
            "merge would silently leave the destination unchanged")
    stats = {"added": 0, "duplicate": 0}
    for source in sources:
        if not isinstance(source, (str, os.PathLike)):
            sub = dest._adopt_from(source)
        else:
            path = os.fspath(source)
            if not os.path.isdir(path):
                # Opening would silently create an empty store, turning
                # a typo'd path into a "successful" merge of nothing —
                # and a later run would recompute that host's slice.
                raise ConfigurationError(
                    f"merge source {path!r} does not exist")
            with ColumnarStore(path) as opened:
                sub = dest._adopt_from(opened)
        stats["added"] += sub["added"]
        stats["duplicate"] += sub["duplicate"]
    return stats

