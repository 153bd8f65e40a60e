"""Columnar trial store: the one trial store, with two tiers.

Trials arrive one at a time and must be durable the moment they
complete, but analytics read whole columns (rounds, messages, bits)
across millions of rows, or a single ``(task, family, n)`` cell out of
a huge grid. :class:`ColumnarStore` serves both access patterns with
one store in two tiers (the storage-tiering lesson: see PAPERS.md on
Octopus):

* **Tail (ingest tier)** — an append-only JSONL row buffer using the
  store module's fsynced helpers ("append-on-complete", torn-line
  tolerant), so a crash mid-sweep loses at most the trial being
  written.
* **Segments (analysis tier)** — immutable directories of packed numpy
  arrays, one file per column: the spec columns (``task``/``family``
  dictionary-encoded, ``n``/``seed`` as int64, ``ok`` as bool, ``key``
  as fixed-width hex) plus one value/mask array pair per scalar metric
  that is type-homogeneous across the segment (int64 or float64).
  Columns are memory-loaded lazily and independently, so a query
  touches only the arrays it filters or reads — never the whole store.
* **Sidecar** — everything ragged rides in one JSONL sidecar per
  segment (trial params, the original ``data`` key order, and any
  value that is not a homogeneous int/float: strings, tuples, bools,
  ints beyond int64). A companion offset array gives random access, so
  materializing one row costs one ``seek``, not a parse of the file.
  This is what makes the format *lossless*: a record reconstructed
  from columns + sidecar is identical — same content-addressed key,
  same bytes through :func:`~repro.sim.batch.store.spec_key` — to the
  record that was put.

:meth:`ColumnarStore.flush` packs the tail into a new segment: segment
directory first, then the manifest (the atomic commit point), then the
tail truncate. A crash between any two steps is recovered on load —
unlisted segment directories are ignored and rows still in the tail
are deduplicated against freshly listed segments — so a torn final
flush never loses or duplicates a trial. Segments are packed in
insertion order at deterministic flush points, so the same puts in the
same order produce the same bytes.

Legacy JSONL-shard directories (``shards/`` plus ``index.json``, the
layout older builds wrote) are not opened live: :class:`ColumnarStore`
refuses them loudly, and :func:`compact` upgrades one into a fresh
columnar store, preserving record bytes and content-addressed keys.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from ...errors import ConfigurationError
from .runner import TrialResult, TrialSpec, aggregate as _aggregate_results
from .store import (
    LEGACY_SHARD_DIR,
    RESULT_FORMAT_VERSION,
    _decode,
    _encode,
    append_jsonl,
    canonical_spec,
    legacy_records,
    open_jsonl_append,
    read_jsonl,
    record_digest,
    spec_key,
)

#: Bump when the on-disk columnar layout changes shape (column files,
#: manifest schema, sidecar fields). Distinct from RESULT_FORMAT_VERSION,
#: which governs the *meaning* of stored results.
COLSTORE_FORMAT_VERSION = 1

#: Rows buffered in the tail before an automatic segment flush.
DEFAULT_FLUSH_ROWS = 4096

MANIFEST_NAME = "colstore.json"
TAIL_NAME = "tail.jsonl"
SEGMENT_DIR = "segments"

_KEY_FILE = "key.npy"
_TASK_FILE = "task.npy"
_FAMILY_FILE = "family.npy"
_N_FILE = "n.npy"
_SEED_FILE = "seed.npy"
_OK_FILE = "ok.npy"
_SIDECAR_FILE = "sidecar.jsonl"
_SIDECAR_OFFSETS_FILE = "sidecar-offsets.npy"

_RECORD_FIELDS = frozenset({"version", "task", "key", "spec", "ok", "data"})
_SPEC_FIELDS = frozenset({"family", "n", "seed", "params"})
_HEX_KEY = re.compile(r"^[0-9a-f]{32}$")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Spec fields a columnar query can filter and group on without
#: touching the sidecar (``params`` grouping falls back to
#: materialization).
_FILTER_FIELDS = ("task", "family", "n", "seed")


def _metric_files(name: str) -> Tuple[str, str]:
    """Filesystem-safe (values, mask) file names for a metric column."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
    if safe != name or not safe:
        import hashlib

        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).hexdigest()
        safe = f"{safe or 'metric'}-{digest}"
    return f"m-{safe}.npy", f"m-{safe}-mask.npy"


def check_record(record: Any) -> Dict[str, Any]:
    """Validate one raw store record's shape, loudly.

    The columnar writer decomposes records into typed arrays, so —
    unlike the JSONL readers, which can afford to skip foreign lines —
    it must refuse anything that does not look exactly like a trial
    record: silently dropping fields here would surface later as a
    round-trip mismatch.
    """
    if not isinstance(record, dict) or set(record) != _RECORD_FIELDS:
        raise ConfigurationError(
            f"not a trial record: expected keys {sorted(_RECORD_FIELDS)}, "
            f"got {sorted(record) if isinstance(record, dict) else record!r}"
        )
    spec = record["spec"]
    if not isinstance(spec, dict) or set(spec) != _SPEC_FIELDS:
        raise ConfigurationError(
            f"malformed record spec for key {record.get('key')!r}: "
            f"expected keys {sorted(_SPEC_FIELDS)}, got {spec!r}"
        )
    if not isinstance(record["key"], str) or not _HEX_KEY.match(record["key"]):
        raise ConfigurationError(
            f"record key {record['key']!r} is not a 32-hex-digit content "
            f"address (see repro.sim.batch.store.spec_key)"
        )
    if not isinstance(record["task"], str) or not isinstance(record["data"], dict):
        raise ConfigurationError(
            f"malformed record for key {record['key']!r}: task must be a "
            f"string and data a dict"
        )
    for field in ("n", "seed"):
        value = spec[field]
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or not _INT64_MIN <= value <= _INT64_MAX
        ):
            raise ConfigurationError(
                f"record {record['key']!r}: spec field {field!r} must be an "
                f"int64-range integer, got {value!r}"
            )
    return record


def _spec_of(spec_dict: Dict[str, Any]) -> TrialSpec:
    """Rebuild a :class:`TrialSpec` from its canonical record form."""
    params = tuple((key, _decode(value)) for key, value in spec_dict["params"])
    return TrialSpec(spec_dict["family"], spec_dict["n"], spec_dict["seed"], params)


def merge_conflict(
    existing: Dict[str, Any], incoming: Dict[str, Any], source: str
) -> ConfigurationError:
    """The refusal for two stores holding different records for one key."""
    return ConfigurationError(
        f"conflicting records for key {incoming['key']} "
        f"(task {incoming.get('task')!r}) while merging {source!r}: stored "
        f"record digest {record_digest(existing)} vs incoming record digest "
        f"{record_digest(incoming)} — two stores disagree about a "
        f"deterministic computation"
    )


def result_of_record(record: Dict[str, Any]) -> TrialResult:
    """Materialize one raw store record as a :class:`TrialResult`."""
    return TrialResult(
        _spec_of(record["spec"]), bool(record["ok"]), _decode(record["data"])
    )


class _Segment:
    """One immutable packed-column segment, loaded lazily column by column."""

    def __init__(self, store_root: str, entry: Dict[str, Any]) -> None:
        self.dir = os.path.join(store_root, SEGMENT_DIR, entry["name"])
        self.entry = entry
        self.rows = int(entry["rows"])
        self._arrays: Dict[str, np.ndarray] = {}
        self._sidecar: Optional[IO[bytes]] = None

    def column(self, filename: str) -> np.ndarray:
        arr = self._arrays.get(filename)
        if arr is None:
            arr = np.load(os.path.join(self.dir, filename), allow_pickle=False)
            self._arrays[filename] = arr
        return arr

    def loaded_columns(self) -> List[str]:
        """Column files currently in memory (tests pin query laziness)."""
        return sorted(self._arrays)

    def keys(self) -> List[str]:
        return [key.decode("ascii") for key in self.column(_KEY_FILE)]

    # -- sidecar ------------------------------------------------------
    def _offsets(self) -> np.ndarray:
        return self.column(_SIDECAR_OFFSETS_FILE)

    def sidecar_row(self, row: int) -> Dict[str, Any]:
        """One sidecar line by random access: a seek, not a file parse."""
        offsets = self._offsets()
        if self._sidecar is None:
            self._sidecar = open(os.path.join(self.dir, _SIDECAR_FILE), "rb")
        self._sidecar.seek(int(offsets[row]))
        raw = self._sidecar.read(int(offsets[row + 1] - offsets[row]))
        return json.loads(raw)

    def sidecar_rows(self) -> List[Dict[str, Any]]:
        """Every sidecar line, parsed sequentially (full materialization)."""
        with open(os.path.join(self.dir, _SIDECAR_FILE), "rb") as handle:
            return [json.loads(line) for line in handle]

    def sidecar_raw_lines(self) -> List[bytes]:
        """Raw sidecar lines (bulk adoption copies them without parsing)."""
        with open(os.path.join(self.dir, _SIDECAR_FILE), "rb") as handle:
            return handle.readlines()

    # -- materialization ---------------------------------------------
    def record(
        self,
        row: int,
        task_vocab: List[str],
        family_vocab: List[str],
        side: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Reconstruct row ``row`` as the exact raw record it came from."""
        if side is None:
            side = self.sidecar_row(row)
        metrics = self.entry["metrics"]
        extras = side.get("x", {})
        data: Dict[str, Any] = {}
        for name in side["k"]:
            if name in extras:
                data[name] = extras[name]
            else:
                meta = metrics[name]
                value = self.column(meta["file"])[row]
                data[name] = int(value) if meta["kind"] == "int" else float(value)
        return {
            "version": side.get("v", RESULT_FORMAT_VERSION),
            "task": task_vocab[int(self.column(_TASK_FILE)[row])],
            "key": self.column(_KEY_FILE)[row].decode("ascii"),
            "spec": {
                "family": family_vocab[int(self.column(_FAMILY_FILE)[row])],
                "n": int(self.column(_N_FILE)[row]),
                "seed": int(self.column(_SEED_FILE)[row]),
                "params": side["p"],
            },
            "ok": bool(self.column(_OK_FILE)[row]),
            "data": data,
        }

    def filter_mask(
        self,
        task_vocab: List[str],
        family_vocab: List[str],
        task: Optional[str] = None,
        family: Optional[str] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Row mask for the given filters, touching only filter columns."""
        mask = np.ones(self.rows, dtype=bool)
        for value, vocab, filename in (
            (task, task_vocab, _TASK_FILE),
            (family, family_vocab, _FAMILY_FILE),
        ):
            if value is None:
                continue
            try:
                code = vocab.index(value)
            except ValueError:
                return np.zeros(self.rows, dtype=bool)
            mask &= self.column(filename) == code
        if n is not None:
            mask &= self.column(_N_FILE) == n
        if seed is not None:
            mask &= self.column(_SEED_FILE) == seed
        return mask

    def close(self) -> None:
        if self._sidecar is not None:
            self._sidecar.close()
            self._sidecar = None


def _classify_metric(values: List[Any]) -> Optional[str]:
    """Column kind for one data field's segment values, or None (sidecar).

    Only type-homogeneous scalar fields become packed columns: all-int
    (within int64 — message counters beyond 2^63-1 stay ragged rather
    than silently wrapping) or all-float. Bools are verdicts, not
    metrics (see :func:`~repro.sim.batch.runner.aggregate`), and ride
    the sidecar with every other ragged value.
    """
    kinds = set()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if isinstance(value, int):
            if not _INT64_MIN <= value <= _INT64_MAX:
                return None
            kinds.add("int")
        else:
            kinds.add("float")
    return kinds.pop() if len(kinds) == 1 else None


def refuse_legacy_store(root: Union[str, os.PathLike]) -> None:
    """Raise if ``root`` is a legacy JSONL-shard store (``shards/``, no manifest).

    Opening one as a live store would start an empty store beside the
    old records, and every sweep would silently recompute cold.
    """
    root = os.fspath(root)
    legacy = os.path.isdir(os.path.join(root, LEGACY_SHARD_DIR))
    if legacy and not os.path.isfile(os.path.join(root, MANIFEST_NAME)):
        raise ConfigurationError(
            f"{root!r} is a legacy JSONL-shard trial store; upgrade it once "
            f"with --store {root} --compact DEST (repro.sim.batch.compact) "
            f"and use DEST from then on"
        )


class ColumnarStore:
    """A directory of packed trial columns plus a durable JSONL tail.

    Speaks the ``get``/``put``/``flush`` cache protocol, so it drops
    into ``run_trials(..., store=...)``,
    :class:`~repro.sim.batch.store.ReadThroughStore`, and
    :func:`~repro.sim.batch.store.merge_stores` — plus the column-wise
    extras: :meth:`select` and :meth:`aggregate` answer single-cell
    queries by loading only the columns they touch.

    ``put`` appends to the fsynced tail; every ``flush_rows`` rows —
    or on an explicit :meth:`flush`, which ``run_trials`` issues when a
    sweep that added rows finishes — the tail is packed into an
    immutable segment. Opening a store loads only the manifest and the
    per-segment key columns, so warm-cache lookups are dict-speed
    without parsing a single result.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        flush_rows: int = DEFAULT_FLUSH_ROWS,
    ) -> None:
        if flush_rows < 1:
            raise ConfigurationError(f"flush_rows must be >= 1, got {flush_rows}")
        self.root = os.fspath(root)
        self.flush_rows = flush_rows
        refuse_legacy_store(self.root)
        os.makedirs(os.path.join(self.root, SEGMENT_DIR), exist_ok=True)
        self._manifest = self._load_manifest()
        if not os.path.exists(self._manifest_path):
            # Self-describing from creation: a store that crashes
            # before its first flush (rows only in the tail) still
            # carries its layout version.
            self._write_manifest()
        self._segments = [
            _Segment(self.root, entry) for entry in self._manifest["segments"]
        ]
        self._counts: Dict[str, int] = dict(self._manifest["tasks"])
        #: key -> (segment index, row); tail rows use segment index -1.
        self._index: Dict[str, Tuple[int, int]] = {}
        for seg_idx, segment in enumerate(self._segments):
            for row, key in enumerate(segment.keys()):
                self._index[key] = (seg_idx, row)
        self._tail: List[Dict[str, Any]] = []
        self._tail_handle: Optional[IO[str]] = None
        self._load_tail()

    # ------------------------------------------------------------------
    # layout plumbing
    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    @property
    def _tail_path(self) -> str:
        return os.path.join(self.root, TAIL_NAME)

    def _load_manifest(self) -> Dict[str, Any]:
        if not os.path.exists(self._manifest_path):
            return {
                "format": COLSTORE_FORMAT_VERSION,
                "result_format": RESULT_FORMAT_VERSION,
                "task_vocab": [],
                "family_vocab": [],
                "segments": [],
                "tasks": {},
                "total": 0,
            }
        with open(self._manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != COLSTORE_FORMAT_VERSION:
            raise ConfigurationError(
                f"columnar store {self.root} has layout format "
                f"{manifest.get('format')!r}; this build reads "
                f"{COLSTORE_FORMAT_VERSION}"
            )
        return manifest

    def _load_tail(self) -> None:
        """Adopt tail rows, deduplicating against freshly packed segments.

        A crash between the manifest commit and the tail truncate
        leaves every just-packed row in both places; identical
        duplicates are the expected recovery case and are skipped,
        while a genuine payload mismatch is a corruption worth
        stopping for.
        """
        for record in read_jsonl(self._tail_path):
            try:
                check_record(record)
            except ConfigurationError:
                continue  # foreign line; same tolerance as read_jsonl
            key = record["key"]
            loc = self._index.get(key)
            if loc is not None:
                if self._record_at(loc) == record:
                    continue
                raise ConfigurationError(
                    f"tail record for key {key} conflicts with the packed "
                    f"segment copy in {self.root} — the store is corrupt"
                )
            self._tail.append(record)
            self._index[key] = (-1, len(self._tail) - 1)
            self._counts[record["task"]] = self._counts.get(record["task"], 0) + 1

    def _record_at(self, loc: Tuple[int, int]) -> Dict[str, Any]:
        seg_idx, row = loc
        if seg_idx == -1:
            return self._tail[row]
        return self._segments[seg_idx].record(
            row, self._manifest["task_vocab"], self._manifest["family_vocab"]
        )

    def _vocab_code(self, vocab_name: str, value: str) -> int:
        vocab = self._manifest[vocab_name]
        try:
            return vocab.index(value)
        except ValueError:
            vocab.append(value)
            return len(vocab) - 1

    # ------------------------------------------------------------------
    # cache protocol used by run_trials
    # ------------------------------------------------------------------
    def get(self, task_name: str, spec: TrialSpec) -> Optional[TrialResult]:
        """The cached result for ``(task_name, spec)``, or None on a miss."""
        loc = self._index.get(spec_key(task_name, spec))
        if loc is None:
            return None
        record = self._record_at(loc)
        if record.get("task") != task_name:
            return None
        return TrialResult(spec, bool(record["ok"]), _decode(record["data"]))

    def put(self, task_name: str, spec: TrialSpec, result: TrialResult) -> None:
        """Checkpoint one completed trial.

        Re-putting an identical result is an idempotent no-op; a
        *different* result for an existing key raises — the store
        claims to cache a deterministic computation, so silently
        keeping the old payload would paper over exactly the kind of
        divergence :func:`~repro.sim.batch.store.merge_stores` refuses
        to merge.
        """
        record = {
            "version": RESULT_FORMAT_VERSION,
            "task": task_name,
            "key": spec_key(task_name, spec),
            "spec": canonical_spec(spec),
            "ok": bool(result.ok),
            "data": _encode(result.data),
        }
        loc = self._index.get(record["key"])
        if loc is not None:
            existing = self._record_at(loc)
            if existing == record:
                return
            raise ConfigurationError(
                f"conflicting result for key {record['key']} "
                f"(task {task_name!r}): stored {existing!r} vs incoming "
                f"{record!r} — a deterministic trial produced two different "
                f"payloads"
            )
        self._append_record(record, durable=True)

    def _append_record(self, record: Dict[str, Any], durable: bool) -> None:
        """Append one checked, not-yet-present raw record to the tail.

        ``durable`` appends through the fsynced JSONL tail (the
        checkpoint path); compaction and merges pass False — their
        crash story is "rerun the operation", so they skip the
        per-record fsync and rely on the segment/manifest commit
        protocol instead.
        """
        check_record(record)
        if durable:
            if self._tail_handle is None:
                self._tail_handle = open_jsonl_append(self._tail_path)
            append_jsonl(self._tail_handle, record)
        self._tail.append(record)
        self._index[record["key"]] = (-1, len(self._tail) - 1)
        self._counts[record["task"]] = self._counts.get(record["task"], 0) + 1
        if len(self._tail) >= self.flush_rows:
            self.flush()

    # ------------------------------------------------------------------
    # segment packing
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Pack buffered tail rows into a new immutable segment.

        Commit protocol, in order: (1) write the segment directory to a
        temp name and rename it into place, (2) rewrite the manifest —
        the atomic commit point — to list it, (3) truncate the tail.
        Loading recovers from a crash between any two steps: an
        unlisted segment directory is invisible (its rows are still in
        the tail), and tail rows already listed are deduplicated.
        """
        if not self._tail:
            return
        records = self._tail
        name = f"seg-{len(self._segments):05d}"
        entry = self._pack_segment(name, records)
        self._manifest["segments"].append(entry)
        self._manifest["tasks"] = dict(sorted(self._counts.items()))
        self._manifest["total"] = len(self._index)
        self._write_manifest()
        if self._tail_handle is not None:
            self._tail_handle.close()
            self._tail_handle = None
        open(self._tail_path, "w").close()
        self._segments.append(_Segment(self.root, entry))
        seg_idx = len(self._segments) - 1
        for row, record in enumerate(records):
            self._index[record["key"]] = (seg_idx, row)
        self._tail = []

    def _write_manifest(self) -> None:
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._manifest, handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, self._manifest_path)

    def _segment_dir(self, name: str) -> str:
        return os.path.join(self.root, SEGMENT_DIR, name)

    def _pack_segment(
        self, name: str, records: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Write one segment directory from raw records; return its entry."""
        tmp = self._segment_dir(f".tmp-{name}")
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)

        columns: Dict[str, np.ndarray] = {
            _KEY_FILE: np.array([r["key"] for r in records], dtype="S32"),
            _TASK_FILE: np.array(
                [self._vocab_code("task_vocab", r["task"]) for r in records],
                dtype=np.int32,
            ),
            _FAMILY_FILE: np.array(
                [
                    self._vocab_code("family_vocab", r["spec"]["family"])
                    for r in records
                ],
                dtype=np.int32,
            ),
            _N_FILE: np.array([r["spec"]["n"] for r in records], dtype=np.int64),
            _SEED_FILE: np.array([r["spec"]["seed"] for r in records], dtype=np.int64),
            _OK_FILE: np.array([r["ok"] for r in records], dtype=bool),
        }

        fields: Dict[str, List[Tuple[int, Any]]] = {}
        for row, record in enumerate(records):
            for field, value in record["data"].items():
                fields.setdefault(field, []).append((row, value))
        metrics: Dict[str, Dict[str, str]] = {}
        extra_fields: List[str] = []
        for field in sorted(fields):
            pairs = fields[field]
            kind = _classify_metric([value for _row, value in pairs])
            if kind is None:
                extra_fields.append(field)
                continue
            value_file, mask_file = _metric_files(field)
            if any(m["file"] == value_file for m in metrics.values()):
                extra_fields.append(field)  # sanitized-name collision
                continue
            dtype = np.int64 if kind == "int" else np.float64
            values = np.zeros(len(records), dtype=dtype)
            mask = np.zeros(len(records), dtype=bool)
            for row, value in pairs:
                values[row] = value
                mask[row] = True
            columns[value_file] = values
            columns[mask_file] = mask
            metrics[field] = {"kind": kind, "file": value_file, "mask": mask_file}

        lines: List[bytes] = []
        for record in records:
            side: Dict[str, Any] = {
                "p": record["spec"]["params"],
                "k": list(record["data"]),
            }
            extras = {
                field: record["data"][field]
                for field in extra_fields
                if field in record["data"]
            }
            if extras:
                side["x"] = extras
            if record["version"] != RESULT_FORMAT_VERSION:
                side["v"] = record["version"]
            lines.append(json.dumps(side, separators=(",", ":")).encode() + b"\n")
        offsets = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum([len(line) for line in lines], out=offsets[1:])
        with open(os.path.join(tmp, _SIDECAR_FILE), "wb") as handle:
            handle.writelines(lines)
        columns[_SIDECAR_OFFSETS_FILE] = offsets

        for filename, array in columns.items():
            np.save(os.path.join(tmp, filename), array, allow_pickle=False)
        final = self._segment_dir(name)
        if os.path.isdir(final):
            shutil.rmtree(final)  # stray directory from a torn flush
        os.replace(tmp, final)
        return {
            "name": name,
            "rows": len(records),
            "metrics": metrics,
            "extras": extra_fields,
        }

    # ------------------------------------------------------------------
    # merge: whole-column adoption (see store.merge_stores)
    # ------------------------------------------------------------------
    def _adopt_from(self, source: "ColumnarStore") -> Dict[str, int]:
        """Fold ``source`` in by adopting whole column arrays.

        Per source segment: overlapping keys are checked for payload
        equality (identical rows count as duplicates, a mismatch raises
        :func:`merge_conflict`), then the novel rows are copied as
        filtered arrays — a handful of numpy gathers and a sidecar line
        copy, never a per-row JSON parse. Insertion order is the
        source's: the pending tail is flushed first, then source
        segments in order, then the source's tail rows.
        """
        stats = {"added": 0, "duplicate": 0}
        self.flush()
        src_tasks = source._manifest["task_vocab"]
        src_families = source._manifest["family_vocab"]
        for segment in source._segments:
            keys = segment.keys()
            fresh = np.array([key not in self._index for key in keys], dtype=bool)
            for row in np.nonzero(~fresh)[0] if not fresh.all() else ():
                existing = self._record_at(self._index[keys[row]])
                incoming = segment.record(int(row), src_tasks, src_families)
                if existing != incoming:
                    raise merge_conflict(existing, incoming, source.root)
                stats["duplicate"] += 1
            if not fresh.any():
                continue
            entry = self._adopt_segment(segment, source, fresh)
            self._manifest["segments"].append(entry)
            adopted = _Segment(self.root, entry)
            self._segments.append(adopted)
            seg_idx = len(self._segments) - 1
            for row, key in enumerate(adopted.keys()):
                self._index[key] = (seg_idx, row)
            task_codes = adopted.column(_TASK_FILE)
            vocab = self._manifest["task_vocab"]
            for code in task_codes:
                task = vocab[int(code)]
                self._counts[task] = self._counts.get(task, 0) + 1
            stats["added"] += int(fresh.sum())
            self._manifest["tasks"] = dict(sorted(self._counts.items()))
            self._manifest["total"] = len(self._index)
            self._write_manifest()
        for record in source._tail:
            loc = self._index.get(record["key"])
            if loc is not None:
                existing = self._record_at(loc)
                if existing != record:
                    raise merge_conflict(existing, record, source.root)
                stats["duplicate"] += 1
                continue
            self._append_record(dict(record), durable=False)
            stats["added"] += 1
        self.flush()
        return stats

    def _adopt_segment(
        self, segment: _Segment, source: "ColumnarStore", fresh: np.ndarray
    ) -> Dict[str, Any]:
        """Write one adopted segment from ``segment``'s filtered arrays."""
        name = f"seg-{len(self._segments):05d}"
        tmp = self._segment_dir(f".tmp-{name}")
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)

        remap_task = np.array(
            [
                self._vocab_code("task_vocab", task)
                for task in source._manifest["task_vocab"]
            ],
            dtype=np.int32,
        )
        remap_family = np.array(
            [
                self._vocab_code("family_vocab", family)
                for family in source._manifest["family_vocab"]
            ],
            dtype=np.int32,
        )
        columns: Dict[str, np.ndarray] = {
            _KEY_FILE: segment.column(_KEY_FILE)[fresh],
            _TASK_FILE: remap_task[segment.column(_TASK_FILE)][fresh],
            _FAMILY_FILE: remap_family[segment.column(_FAMILY_FILE)][fresh],
            _N_FILE: segment.column(_N_FILE)[fresh],
            _SEED_FILE: segment.column(_SEED_FILE)[fresh],
            _OK_FILE: segment.column(_OK_FILE)[fresh],
        }
        metrics = segment.entry["metrics"]
        for meta in metrics.values():
            columns[meta["file"]] = segment.column(meta["file"])[fresh]
            columns[meta["mask"]] = segment.column(meta["mask"])[fresh]

        raw = segment.sidecar_raw_lines()
        lines = [raw[row] for row in np.nonzero(fresh)[0]]
        offsets = np.zeros(len(lines) + 1, dtype=np.int64)
        np.cumsum([len(line) for line in lines], out=offsets[1:])
        with open(os.path.join(tmp, _SIDECAR_FILE), "wb") as handle:
            handle.writelines(lines)
        columns[_SIDECAR_OFFSETS_FILE] = offsets

        for filename, array in columns.items():
            np.save(os.path.join(tmp, filename), array, allow_pickle=False)
        final = self._segment_dir(name)
        if os.path.isdir(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        return {
            "name": name,
            "rows": int(fresh.sum()),
            "metrics": dict(metrics),
            "extras": list(segment.entry["extras"]),
        }

    # ------------------------------------------------------------------
    # queries: the columns-only read path
    # ------------------------------------------------------------------
    def select(
        self,
        task: Optional[str] = None,
        family: Optional[str] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[TrialResult]:
        """Matching trials, in insertion order, touching only needed columns.

        Filtering reads only the filter columns of each segment;
        materialization then reads metric columns and sidecar rows of
        the *matching* rows only. A segment with no matches is never
        read beyond its filter columns, and a store-wide scan is never
        required.
        """
        results: List[TrialResult] = []
        tasks = self._manifest["task_vocab"]
        families = self._manifest["family_vocab"]
        for segment in self._segments:
            mask = segment.filter_mask(
                tasks, families, task=task, family=family, n=n, seed=seed
            )
            for row in np.nonzero(mask)[0]:
                record = segment.record(int(row), tasks, families)
                results.append(result_of_record(record))
        for record in self._tail:
            if self._tail_matches(record, task, family, n, seed):
                results.append(result_of_record(record))
        return results

    @staticmethod
    def _tail_matches(
        record: Dict[str, Any],
        task: Optional[str],
        family: Optional[str],
        n: Optional[int],
        seed: Optional[int],
    ) -> bool:
        spec = record["spec"]
        return (
            (task is None or record["task"] == task)
            and (family is None or spec["family"] == family)
            and (n is None or spec["n"] == n)
            and (seed is None or spec["seed"] == seed)
        )

    def aggregate(
        self,
        by: Tuple[str, ...] = ("family", "n"),
        task: Optional[str] = None,
        family: Optional[str] = None,
        n: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Streaming group-by, row-for-row identical to ``runner.aggregate``.

        Produces exactly ``runner.aggregate(self.select(...), by=by)``
        — same group order (first appearance), same metric values in
        the same accumulation order, hence bit-identical floats —
        without materializing a single :class:`TrialResult` for rows
        whose metrics are fully columnar. Segments with ragged extras
        fall back to a sidecar scan for those fields only; grouping by
        ``params`` (not a packed column) falls back to materialization.
        """
        if any(field not in ("family", "n", "seed") for field in by):
            return _aggregate_results(
                self.select(task=task, family=family, n=n, seed=seed), by=by
            )
        field_files = {"family": _FAMILY_FILE, "n": _N_FILE, "seed": _SEED_FILE}
        tasks = self._manifest["task_vocab"]
        families = self._manifest["family_vocab"]
        groups: Dict[Tuple, Dict[str, Any]] = {}
        order: List[Tuple] = []

        def bucket(key: Tuple) -> Dict[str, Any]:
            entry = groups.get(key)
            if entry is None:
                entry = {"trials": 0, "ok": 0, "metrics": {}}
                groups[key] = entry
                order.append(key)
            return entry

        def add_value(entry: Dict[str, Any], name: str, value: Any) -> None:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["metrics"].setdefault(name, []).append(value)

        for segment in self._segments:
            mask = segment.filter_mask(
                tasks, families, task=task, family=family, n=n, seed=seed
            )
            rows = np.nonzero(mask)[0]
            if not rows.size:
                continue
            group_cols = []
            for field in by:
                values = segment.column(field_files[field])[rows].tolist()
                if field == "family":
                    values = [families[code] for code in values]
                group_cols.append(values)
            ok_col = segment.column(_OK_FILE)[rows].tolist()
            metric_cols = {
                name: (
                    segment.column(meta["file"])[rows].tolist(),
                    segment.column(meta["mask"])[rows].tolist(),
                )
                for name, meta in segment.entry["metrics"].items()
            }
            sides = None
            if segment.entry["extras"]:
                all_sides = segment.sidecar_rows()
                sides = [all_sides[int(row)] for row in rows]
            for i in range(len(rows)):
                entry = bucket(tuple(col[i] for col in group_cols))
                entry["trials"] += 1
                entry["ok"] += bool(ok_col[i])
                side = sides[i] if sides is not None else None
                extras = side.get("x", {}) if side is not None else {}
                names = side["k"] if side is not None else None
                if names is None:
                    # No ragged fields in this segment: every metric is
                    # a packed column and presence is the mask.
                    for name, (values, present) in metric_cols.items():
                        if present[i]:
                            add_value(entry, name, values[i])
                else:
                    # Replay the row's original data order so value
                    # accumulation matches runner.aggregate exactly.
                    for name in names:
                        if name in extras:
                            add_value(entry, name, extras[name])
                        elif metric_cols[name][1][i]:
                            add_value(entry, name, metric_cols[name][0][i])
        for record in self._tail:
            if not self._tail_matches(record, task, family, n, seed):
                continue
            spec = record["spec"]
            entry = bucket(tuple(spec[field] for field in by))
            entry["trials"] += 1
            entry["ok"] += bool(record["ok"])
            for name, value in record["data"].items():
                add_value(entry, name, value)

        rows_out: List[Dict[str, Any]] = []
        for key in order:
            entry = groups[key]
            row: Dict[str, Any] = dict(zip(by, key))
            row["trials"] = entry["trials"]
            row["success"] = entry["ok"] / entry["trials"]
            for name in sorted(entry["metrics"]):
                values = entry["metrics"][name]
                row[f"{name}(min)"] = min(values)
                row[f"{name}(mean)"] = sum(values) / len(values)
                row[f"{name}(max)"] = max(values)
            rows_out.append(row)
        return rows_out

    # ------------------------------------------------------------------
    # listing
    # ------------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        """Raw records in insertion order: segments in order, then tail."""
        tasks = self._manifest["task_vocab"]
        families = self._manifest["family_vocab"]
        for segment in self._segments:
            sides = segment.sidecar_rows()
            for row in range(segment.rows):
                yield segment.record(row, tasks, families, side=sides[row])
        yield from self._tail

    def tasks(self) -> Dict[str, int]:
        """Record count per task name, sorted by name."""
        return dict(sorted(self._counts.items()))

    def describe(self) -> str:
        """Human-oriented summary (the CLI ``--list`` output)."""
        lines = [
            f"store {self.root}: {len(self)} result(s), "
            f"format v{RESULT_FORMAT_VERSION}, columnar layout "
            f"v{COLSTORE_FORMAT_VERSION} ({len(self._segments)} segment(s), "
            f"{len(self._tail)} tail row(s))"
        ]
        for task_name, count in self.tasks().items():
            lines.append(f"  {task_name}: {count}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def close(self) -> None:
        """Close the tail handle and segment sidecars (reopened on demand).

        Buffered-but-unflushed rows stay durable in the tail file; an
        explicit :meth:`flush` (or the automatic one ``run_trials``
        issues) is what packs them into segments.
        """
        if self._tail_handle is not None:
            self._tail_handle.close()
            self._tail_handle = None
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "ColumnarStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# the one upgrade path: legacy JSONL shards -> columnar
# ----------------------------------------------------------------------
def _legacy_source(source: Union[str, os.PathLike]) -> str:
    path = os.fspath(source)
    if not os.path.isdir(path):
        raise ConfigurationError(f"store {path!r} does not exist")
    if not os.path.isdir(os.path.join(path, LEGACY_SHARD_DIR)):
        raise ConfigurationError(
            f"{path!r} is not a legacy JSONL-shard trial store (no "
            f"{LEGACY_SHARD_DIR}/ directory); only those need --compact"
        )
    return path


def verify_migration(source: Union[str, os.PathLike], dest: ColumnarStore) -> int:
    """Prove a compaction lossless: identical record streams, loudly.

    Compares the legacy store at ``source`` with ``dest`` record for
    record, in insertion order — which covers content-addressed keys,
    spec bytes, result payloads, and ordering all at once. Returns the
    record count.
    """
    count = 0
    sentinel = object()
    dest_records = dest.records()
    for src_record in legacy_records(_legacy_source(source)):
        dst_record = next(dest_records, sentinel)
        if dst_record is sentinel or src_record != dst_record:
            raise ConfigurationError(
                f"migration mismatch at record {count} "
                f"(key {src_record.get('key')!r}): {os.fspath(source)!r} and "
                f"{dest.root!r} disagree"
            )
        count += 1
    if next(dest_records, sentinel) is not sentinel:
        raise ConfigurationError(
            f"migration mismatch: {dest.root!r} holds more records than "
            f"{os.fspath(source)!r}"
        )
    return count


def compact(
    source: Union[str, os.PathLike],
    dest: Union[str, os.PathLike],
    flush_rows: int = DEFAULT_FLUSH_ROWS,
    verify: bool = False,
) -> ColumnarStore:
    """Upgrade a legacy JSONL-shard store into a fresh columnar store.

    Records stream in :func:`~repro.sim.batch.store.legacy_records`
    order through the columnar row buffer, packed into a segment every
    ``flush_rows`` rows — so the result is deterministic for a given
    source and the content-addressed keys carry over unchanged.
    ``verify=True`` rereads the source and asserts record-for-record
    identity before returning.
    """
    path = _legacy_source(source)
    store = ColumnarStore(dest, flush_rows=flush_rows)
    if len(store) != 0:
        raise ConfigurationError(
            f"compaction destination {store.root!r} already holds "
            f"{len(store)} result(s); compaction writes only into a fresh "
            f"directory (merge into an existing store with merge_stores)"
        )
    for record in legacy_records(path):
        store._append_record(dict(record), durable=False)
    store.flush()
    if verify:
        verify_migration(path, store)
    return store
