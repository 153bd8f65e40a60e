"""Warn when fresh benchmark speedups regress against committed baselines.

Compares the newest entry of each ``BENCH_*.json`` produced by a local
benchmark run against the newest entry committed at ``HEAD`` (read via
``git show``), workload by workload. A speedup that dropped by more than
``--threshold`` (default 25%) prints a loud warning — but the script
always exits 0 unless invoked with ``--strict``: benchmark numbers are
machine- and load-dependent, so a regression is a signal for a human,
not a gate for a bot. The CI benchmarks job runs this after its tiny
smoke so drift is visible in the job log.

Parity flags are different. Benchmarks record cross-engine *equality*
checks into their entries (``parity`` booleans at the entry level and
per workload) before any speedup assertion runs.
Unlike timings, an equality violation is machine-independent — it means
two code paths disagree about a deterministic computation — so
``--strict-parity`` (the CI benchmarks job passes it) fails the run on
any false flag while leaving timing drift warn-only.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_array.py -s
    python scripts_bench_guard.py                      # compare vs HEAD
    python scripts_bench_guard.py --threshold 0.4      # looser bar
    python scripts_bench_guard.py --files BENCH_ARRAY.json
    python scripts_bench_guard.py --strict-parity      # equality gates
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent

DEFAULT_FILES = ("BENCH_ARRAY.json",)


def latest_entry(payload):
    """The newest benchmark entry of a BENCH_*.json list (or None)."""
    if isinstance(payload, list) and payload:
        return payload[-1]
    return None


def committed_payload(name: str):
    """The file's content at HEAD, or None when not committed."""
    proc = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def parity_violations(entry: dict):
    """Yield (where, flag) for every false parity boolean in an entry.

    Benchmarks record equality checks in two shapes: an entry-level
    ``parity`` dict of named booleans and a
    per-workload ``parity`` boolean (cross-engine output identity).
    True flags and absent flags are fine; only an explicit False is a
    violation.
    """
    for flag, value in sorted(entry.get("parity", {}).items()):
        if value is False:
            yield "entry", flag
    for workload, row in sorted(entry.get("workloads", {}).items()):
        if isinstance(row, dict) and row.get("parity") is False:
            yield workload, "parity"


def compare_entries(name: str, baseline: dict, fresh: dict, threshold: float):
    """Yield (workload, old speedup, new speedup) regressions."""
    base_workloads = baseline.get("workloads", {})
    fresh_workloads = fresh.get("workloads", {})
    for workload, base_row in sorted(base_workloads.items()):
        fresh_row = fresh_workloads.get(workload)
        if fresh_row is None:
            continue  # profiles differ (tiny vs full); nothing comparable
        old = base_row.get("speedup")
        new = fresh_row.get("speedup")
        if not old or not new:
            continue
        if new < old * (1.0 - threshold):
            yield workload, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Warn on benchmark speedup regressions vs HEAD."
    )
    parser.add_argument(
        "--files",
        nargs="+",
        default=list(DEFAULT_FILES),
        help=f"BENCH_*.json files to check (default: {' '.join(DEFAULT_FILES)})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative speedup drop that triggers a warning (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on regression instead of warning (not used by CI)",
    )
    parser.add_argument(
        "--strict-parity",
        action="store_true",
        help="exit 1 on any false parity flag in a fresh entry; timing "
        "drift stays warn-only (the CI benchmarks job passes this)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")

    regressions = []
    parity_failures = []
    for name in args.files:
        fresh_path = REPO_ROOT / name
        if not fresh_path.exists():
            print(f"[bench-guard] {name}: no fresh file, skipping")
            continue
        fresh = latest_entry(json.loads(fresh_path.read_text()))
        if fresh is None:
            print(f"[bench-guard] {name}: no entries, skipping")
            continue
        # Parity gates the fresh entry on its own — no baseline needed:
        # an equality violation is wrong on any machine, including one
        # whose timings were never committed.
        violations = list(parity_violations(fresh))
        if violations:
            parity_failures.append(name)
            for where, flag in violations:
                print(
                    f"[bench-guard] PARITY VIOLATION: {name} {where}: "
                    f"{flag} is false — two code paths disagree about a "
                    f"deterministic computation"
                )
        baseline = latest_entry(committed_payload(name))
        if baseline is None:
            print(f"[bench-guard] {name}: no committed baseline, skipping")
            continue
        if fresh is baseline or fresh == baseline:
            print(f"[bench-guard] {name}: fresh entry identical to HEAD, skipping")
            continue
        found = list(compare_entries(name, baseline, fresh, args.threshold))
        if not found:
            drop = f"{args.threshold:.0%}"
            print(f"[bench-guard] {name}: no speedup regression beyond {drop}")
        for workload, old, new in found:
            regressions.append(name)
            print(
                f"[bench-guard] WARNING: {name} {workload}: speedup"
                f" {old:.2f}x -> {new:.2f}x (dropped {1 - new / old:.0%},"
                f" threshold {args.threshold:.0%})"
            )

    if parity_failures and args.strict_parity:
        return 1
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
