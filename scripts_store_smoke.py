"""Legacy-upgrade smoke: an old JSONL-shard store, compacted, replays identically.

Trial stores used to be written as JSONL shards (``shards/<task>.jsonl``
plus ``index.json``); today's store is columnar
(``repro.sim.batch.colstore``) and ``--compact`` is the one upgrade
path. This smoke sweeps a quick experiment set into a store, writes
the sweep's records out in the legacy layout, upgrades that with
``--compact``, then regenerates the same tables from the upgraded
store and requires

* **table byte-identity** — the rendered tables (timing lines
  stripped) from the original sweep and the upgraded store are equal,
  byte for byte;
* **identical content-addressed keys** — the upgraded store holds
  exactly the sweep's records, ``spec_key`` and payload alike
  (``--compact`` itself verifies the upgrade record-for-record);
* **no recompute** — the replay serves every trial from cache: the
  upgraded store's record count is unchanged afterwards.

Plus a ``--query`` round trip against the upgraded store. Every store
directory is left in place (``--dir``) so CI can upload them as
artifacts. Runs in-process — this is a correctness smoke, not a
subprocess drill.

Usage::

    PYTHONPATH=src python scripts_store_smoke.py
    PYTHONPATH=src python scripts_store_smoke.py --dir store-smoke e01 e10
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import shutil
import sys

# TIMING_LINE matches the wall-clock line the CLI prints above each
# table ("### done e10 in 1.2s") — the only output allowed to differ
# between the two replays.
from repro.analysis.cli import TIMING_LINE
from repro.analysis.cli import main as analysis_main
from repro.sim.batch import RESULT_FORMAT_VERSION, ColumnarStore
from repro.sim.batch.store import LEGACY_SHARD_DIR, jsonl_line

DEFAULT_EXPERIMENTS = ("e01", "e10")


def run_cli(argv: list) -> str:
    """One in-process analysis-CLI run; its stdout, or a loud failure."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = analysis_main(argv)
    if rc != 0:
        sys.stderr.write(buffer.getvalue())
        raise SystemExit(f"analysis CLI exited {rc} for {argv}")
    return buffer.getvalue()


def table_lines(text: str) -> list:
    return [line for line in text.splitlines() if not TIMING_LINE.match(line)]


def write_legacy_store(root: str, records: list) -> None:
    """``records`` in the legacy layout: one JSONL shard per task + index."""
    shards = os.path.join(root, LEGACY_SHARD_DIR)
    os.makedirs(shards)
    by_task: dict = {}
    for record in records:
        by_task.setdefault(record["task"], []).append(jsonl_line(record))
    for task, lines in by_task.items():
        if not re.fullmatch(r"[A-Za-z0-9._-]+", task):
            raise SystemExit(f"task name {task!r} is not a plain shard name")
        with open(os.path.join(shards, f"{task}.jsonl"), "w") as handle:
            handle.writelines(lines)
    index = {
        "format": RESULT_FORMAT_VERSION,
        "total": len(records),
        "tasks": {task: len(lines) for task, lines in sorted(by_task.items())},
    }
    with open(os.path.join(root, "index.json"), "w") as handle:
        handle.write(json.dumps(index, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Legacy JSONL-shard -> columnar upgrade smoke "
        "(tables, keys, cache)."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(DEFAULT_EXPERIMENTS),
        help=f"experiments to sweep (default: {' '.join(DEFAULT_EXPERIMENTS)})",
    )
    parser.add_argument(
        "--dir",
        default="store-smoke",
        help="directory for the sweep, legacy and upgraded stores (kept "
        "for artifact upload; default: store-smoke)",
    )
    args = parser.parse_args(argv)
    if os.path.isdir(args.dir):
        shutil.rmtree(args.dir)  # rerunnable: --compact needs a fresh DEST
    sweep_dir = os.path.join(args.dir, "sweep")
    legacy_dir = os.path.join(args.dir, "legacy")
    upgraded_dir = os.path.join(args.dir, "upgraded")

    print(f"[store-smoke] sweeping {args.experiments} into {sweep_dir}")
    first = run_cli([*args.experiments, "--store", sweep_dir])
    with ColumnarStore(sweep_dir) as sweep:
        records = list(sweep.records())
    count = len(records)

    print(f"[store-smoke] writing {count} record(s) as legacy shards in {legacy_dir}")
    write_legacy_store(legacy_dir, records)

    print(f"[store-smoke] upgrading {legacy_dir} -> {upgraded_dir}")
    print(run_cli(["--store", legacy_dir, "--compact", upgraded_dir]).strip())
    with ColumnarStore(upgraded_dir) as upgraded:
        migrated = {record["key"]: record for record in upgraded.records()}
    if migrated != {record["key"]: record for record in records}:
        raise SystemExit("the upgraded store's records differ from the sweep's")
    print(
        f"[store-smoke] {count} record(s) upgraded with identical "
        f"content-addressed keys and payloads"
    )

    print("[store-smoke] regenerating tables from the upgraded store")
    second = run_cli([*args.experiments, "--store", upgraded_dir])
    if table_lines(first) != table_lines(second):
        sys.stderr.write(
            "".join(
                difflib.unified_diff(
                    [line + "\n" for line in table_lines(first)],
                    [line + "\n" for line in table_lines(second)],
                    fromfile="tables-from-sweep",
                    tofile="tables-from-upgraded",
                )
            )
        )
        raise SystemExit("tables differ between the sweep and the upgraded store")
    print("[store-smoke] tables byte-identical after the upgrade")

    with ColumnarStore(upgraded_dir) as replayed:
        if len(replayed) != count:
            raise SystemExit(
                f"replay recomputed trials: store grew from {count} to "
                f"{len(replayed)} record(s) — the cache missed"
            )

    family, n = records[0]["spec"]["family"], records[0]["spec"]["n"]
    out = run_cli(["--store", upgraded_dir, "--query", f"family={family}", f"n={n}"])
    print(out.strip())
    matched = int(out.split(" ", 1)[0])
    expected = sum(
        r["spec"]["family"] == family and r["spec"]["n"] == n for r in records
    )
    if matched != expected:
        raise SystemExit(
            f"--query family={family} n={n} matched {matched}, expected {expected}"
        )

    print(
        f"[store-smoke] OK: {count} record(s), tables identical, no "
        f"recompute, query matched {matched}; stores kept under {args.dir}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
