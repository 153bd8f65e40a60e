"""Sharded-sweep smoke: 2 shards + merge must equal the unsharded run.

CI runs this after the test suite: a quick sweep is computed three ways
— cold (no store), and as two host-style shards merged into one store
and replayed — and the results, aggregates, and cache behaviour are
asserted identical. The store directory is left on disk so CI can
upload it as an artifact.

Usage::

    PYTHONPATH=src python scripts_shard_smoke.py [--dir sweep-store]
"""
import argparse
import os
import shutil
import sys

from repro.sim.batch import (
    ColumnarStore,
    aggregate,
    flood_min_trial,
    grid,
    luby_mis_trial,
    merge_stores,
    run_trials,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default="sweep-store",
                        help="store root (kept for artifact upload)")
    args = parser.parse_args(argv)
    if os.path.isdir(args.dir):
        # A warm store from a previous run would make every merge a
        # duplicate and fail the added==total assertion below; the
        # smoke must be rerunnable against the same --dir.
        shutil.rmtree(args.dir)

    sweeps = [
        (flood_min_trial, grid(["cycle", "gnp-sparse"], [16, 24], range(3),
                               radius=12)),
        (luby_mis_trial, grid(["expander"], [16], range(3))),
    ]
    host0 = ColumnarStore(f"{args.dir}/host0")
    host1 = ColumnarStore(f"{args.dir}/host1")
    merged = ColumnarStore(f"{args.dir}/merged")

    for task, specs in sweeps:
        run_trials(task, specs, store=host0, shard=(0, 2))
        run_trials(task, specs, store=host1, shard=(1, 2))

    stats = merge_stores(merged, [host0, host1])
    print(f"merged shards: {stats['added']} added, "
          f"{stats['duplicate']} duplicate")
    total = sum(len(specs) for _task, specs in sweeps)
    assert stats["added"] == total, (stats, total)

    size_before = len(merged)
    for task, specs in sweeps:
        cold = run_trials(task, specs, workers=1)
        replayed = run_trials(task, specs, store=merged)
        assert replayed == cold, f"{task.__name__}: shard+merge != unsharded"
        assert aggregate(replayed) == aggregate(cold), task.__name__
    assert len(merged) == size_before, "replay recomputed cached trials"

    print(merged.describe())
    print("sharded-sweep smoke OK: 2-shard merge equals the unsharded run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
