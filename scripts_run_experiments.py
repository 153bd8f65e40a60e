"""Regenerate experiment tables, fanning seed sweeps across processes.

Every experiment's per-seed trial loop goes through
``repro.sim.batch.run_trials``, so ``--workers N`` parallelizes the
sweeps without changing a single number in the tables (trial randomness
is a pure function of the trial spec). ``--store DIR`` checkpoints every
completed trial, making full-profile regeneration resumable: rerun the
same command after a kill and only the missing trials execute.
``--shard-index/--shard-count`` let independent hosts each compute a
deterministic slice into their own store; ``--merge`` combines shard
stores, after which a plain ``--store`` run renders the tables entirely
from cache. Within a process each distinct graph is built once and
carries its frozen CSR topology (README "Large graphs").

Usage::

    PYTHONPATH=src python scripts_run_experiments.py               # full, serial
    PYTHONPATH=src python scripts_run_experiments.py --workers 8   # full, 8 procs
    PYTHONPATH=src python scripts_run_experiments.py --quick e09   # one table, quick
    PYTHONPATH=src python scripts_run_experiments.py --store runs/full   # resumable
    PYTHONPATH=src python scripts_run_experiments.py --store runs/h0 \\
        --shard-index 0 --shard-count 2                            # host 0 slice
    PYTHONPATH=src python scripts_run_experiments.py --store runs/full \\
        --merge runs/h0 runs/h1                                    # combine

``--query FIELD=VALUE...`` answers filtered aggregates from the
store's packed columns without a full parse, and ``--compact DEST``
upgrades a legacy JSONL-shard store written by an older build into a
fresh store at DEST, verified record-for-record (README "Durable sweep
store")::

    PYTHONPATH=src python scripts_run_experiments.py \\
        --store runs/full --query family=cycle n=64                # query
    PYTHONPATH=src python scripts_run_experiments.py \\
        --store runs/old-jsonl --compact runs/full                 # upgrade

Coordinated sweeps replace the manual shard bookkeeping: one
``--coordinator`` process leases work units to any number of
``--worker`` processes and merges their pushed stores byte-identically
to a single-host run (README "Distributed sweeps"). The coordinator
write-ahead journals every lease transition into its staging directory,
so a killed coordinator restarts with ``--resume`` and picks up where
it died; ``--auth-token``/``$REPRO_SWEEP_TOKEN`` gates the control
plane and ``--timeout`` bounds the wait on a stalled fleet::

    PYTHONPATH=src python scripts_run_experiments.py --store runs/full \\
        --coordinator 0.0.0.0:8642                                 # serve
    PYTHONPATH=src python scripts_run_experiments.py \\
        --worker http://host:8642                                  # per worker
    PYTHONPATH=src python scripts_run_experiments.py --store runs/full \\
        --coordinator 0.0.0.0:8642 --resume                        # after a crash

Workers retry transient failures with jittered exponential backoff
(``--retries``); the coordinator quarantines units the whole fleet
keeps failing (``--max-attempts``) and reports them in
``quarantine.json``; ``--chaos SEED`` injects deterministic faults for
drills (README "Fault model & troubleshooting").
"""
import argparse
import sys
import time

from repro.analysis import EXPERIMENTS
from repro.analysis.experiments import SWEEPING
from repro.analysis.cli import (
    add_coordination_arguments,
    add_scenario_argument,
    add_store_arguments,
    apply_scenario_argument,
    positive_int,
    resolve_store_arguments,
    run_coordination,
    run_scenario_locally,
    run_store_commands,
)
from repro.errors import ConfigurationError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help="experiment names (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="quick profile (benchmark scale)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for the sweeps (default 1; "
                             "conflicts with --scenario)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="process fan-out for the seed-sweeping "
                             "experiments e01-e06/e08/e10 "
                             "(default: $REPRO_WORKERS or 1)")
    parser.add_argument("--list", action="store_true",
                        help="with --store: list the store's contents and "
                             "exit")
    add_scenario_argument(parser)
    add_store_arguments(parser)
    add_coordination_arguments(parser)
    args = parser.parse_args(argv)

    try:
        scenario, names, quick, seed = apply_scenario_argument(
            args, quick=args.quick, profile_flag_set=args.quick,
            profile_flag="--quick")
        handled = run_coordination(args, names, quick=quick, seed=seed,
                                   scenario=scenario)
        if handled is not None:
            return handled
        store, shard = resolve_store_arguments(args)
        handled = run_store_commands(args, store)
        if handled is None and scenario is not None:
            handled = run_scenario_locally(scenario, args, store, shard)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if handled is not None:
        return handled
    if args.list:
        print("--list without --store lists nothing here; "
              "see python -m repro.analysis --list", file=sys.stderr)
        return 2

    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"choose from {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2

    for name in names:
        if shard is not None and name not in SWEEPING:
            print(f"### {name} has no trial sweep to shard; skipped — "
                  f"it runs on the merge host", flush=True)
            continue
        start = time.time()
        table = EXPERIMENTS[name](quick=quick, seed=seed,
                                  workers=args.workers, store=store,
                                  shard=shard)
        took = time.time() - start
        if shard is not None:
            print(f"### shard {shard[0]}/{shard[1]} of {name} populated in "
                  f"{took:.1f}s; store holds {len(store)} result(s)",
                  flush=True)
            continue
        print(f"### done {name} in {took:.1f}s", flush=True)
        print(table.render(), flush=True)
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
