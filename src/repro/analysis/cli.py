"""Command-line entry point: regenerate experiment and ablation tables.

Usage::

    python -m repro.analysis                 # all experiments, quick
    python -m repro.analysis --full          # full profile (slow)
    python -m repro.analysis e03 e08         # a subset
    python -m repro.analysis a1 a2 a3        # ablations
    python -m repro.analysis --list          # show what exists

Names run in the order given, each table printed as soon as it is done
below a ``### done eXX in Ys`` line (:data:`TIMING_LINE`) — the format
EXPERIMENTS.md pins.

Scenario files (README "Scenario files") replace the name/profile/seed
flags with one declarative spec — a library name or a YAML/JSON path::

    python -m repro.analysis --scenario paper-quick       # == all, quick
    python -m repro.analysis --scenario crash-midround    # adversarial sweep
    python -m repro.analysis --scenario my-sweep.yaml     # your own file

A scenario owns its profile and seed plan, so it conflicts with
``--full``, ``--seed`` and positional names; store, shard, and
coordinator/worker modes thread through unchanged.

Durable sweeps (see README "Durable sweep store")::

    python -m repro.analysis --full --store runs/full        # resumable
    python -m repro.analysis --full --store runs/h0 \\
        --shard-index 0 --shard-count 2                      # host 0 slice
    python -m repro.analysis --store runs/full --merge runs/h0 runs/h1
    python -m repro.analysis --store runs/full --list        # store contents

Columnar analytics (README "Durable sweep store"): answer single-cell
questions from the store's packed columns, and upgrade a legacy
JSONL-shard store written by an older build, once::

    python -m repro.analysis --store runs/full --query family=cycle n=64
    python -m repro.analysis --store runs/old-jsonl --compact runs/full

Coordinated sweeps (see README "Distributed sweeps") replace the manual
shard-index bookkeeping with dynamically leased work units::

    python -m repro.analysis --full --store runs/full \\
        --coordinator 0.0.0.0:8642                           # serve + merge
    python -m repro.analysis --worker http://host:8642       # on each worker
    python -m repro.analysis --full --store runs/full \\
        --coordinator 0.0.0.0:8642 --resume                  # after a crash

The coordinator journals every lease transition into its staging
directory (write-ahead, fsynced per line), so ``--resume`` recovers an
interrupted sweep exactly; ``--timeout`` bounds the wait on a stalled
fleet and ``--auth-token``/``$REPRO_SWEEP_TOKEN`` gates the control
plane with a shared secret.

Fault tolerance (README "Fault model & troubleshooting"): workers retry
transient control-plane and push failures with exponential backoff and
deterministic jitter (``--retries``), the coordinator quarantines a
unit the whole fleet keeps failing instead of re-leasing it forever
(``--max-attempts``, reported in ``quarantine.json`` and backfilled
locally at merge time), and ``--chaos SEED``/``--chaos-poison UNIT``
inject deterministic faults for drills.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..scenarios import (ExperimentGrid, ScenarioSpec, available,
                         scenario_from_arg)
from .ablations import ABLATIONS
from .experiments import EXPERIMENTS, run_experiment_grid
from .tables import Table, scenario_table

if TYPE_CHECKING:
    from ..sim.batch.colstore import ColumnarStore

# The trial store and the coordinator stack (repro.analysis.coordinated,
# http.server) are imported only by the flags that need them.

#: The wall-clock line :func:`print_tables` prints above each table: the
#: one line that differs between two runs of the same tables (the table
#: checks and smokes drop it before comparing).
TIMING_LINE = re.compile(r"^### done \S+ in [0-9]+\.[0-9]s$")

#: Spec fields --query can filter on (column-wise, from the segments).
QUERY_FIELDS = ("task", "family", "n", "seed")

#: ``repro.sim.batch.distrib``'s ``TOKEN_ENV_VAR`` and
#: ``DEFAULT_MAX_ATTEMPTS``, for the help text (importing distrib would
#: load the HTTP stack; a test holds the two pairs equal).
SWEEP_TOKEN_ENV = "REPRO_SWEEP_TOKEN"
SWEEP_MAX_ATTEMPTS = 5


def positive_int(text: str) -> int:
    """argparse type for worker and shard counts."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Every flag of the one table front end."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the E1-E11 experiment and A1-A3 ablation "
                    "tables (see EXPERIMENTS.md).")
    parser.add_argument("names", nargs="*",
                        help="experiment/ablation names, run in the order "
                             "given (default: all experiments)")
    parser.add_argument("--full", action="store_true",
                        help="full profile (EXPERIMENTS.md scale; slow)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for the sweeps (default 1; "
                             "conflicts with --scenario)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="process fan-out for the seed-sweeping "
                             "experiments e01-e06/e08/e10 "
                             "(default: $REPRO_WORKERS or 1)")
    parser.add_argument("--list", action="store_true",
                        help="list available names and exit (with --store: "
                             "list the store's contents instead)")
    parser.add_argument("--scenario", metavar="FILE|NAME", default=None,
                        help="run a declarative scenario instead of named "
                             "experiments: a YAML/JSON spec path, or a "
                             "library scenario name "
                             f"({', '.join(available())})")

    parser.add_argument("--store", metavar="DIR", default=None,
                        help="durable trial store: completed trials are "
                             "checkpointed there and reused on rerun, so "
                             "interrupted sweeps resume from partial results")
    parser.add_argument("--shard-index", type=int, default=None,
                        metavar="I",
                        help="with --shard-count: compute only slice I of "
                             "every sweep grid into --store (tables are "
                             "suppressed; merge the shard stores and rerun "
                             "with --store alone to render them)")
    parser.add_argument("--shard-count", type=positive_int, default=None,
                        metavar="C",
                        help="number of deterministic grid slices (hosts)")
    parser.add_argument("--merge", nargs="+", metavar="SRC", default=None,
                        help="merge these store directories into --store "
                             "and exit")
    parser.add_argument("--compact", metavar="DEST", default=None,
                        help="upgrade the legacy JSONL-shard store at "
                             "--store (written by an older build) into a "
                             "fresh store at DEST, verify it "
                             "record-for-record, and exit")
    parser.add_argument("--query", nargs="+", metavar="FIELD=VALUE",
                        default=None,
                        help="query --store and exit: filter by any of "
                             f"{', '.join(QUERY_FIELDS)} (e.g. --query "
                             "family=cycle n=16) and print matching-trial "
                             "counts plus per-cell aggregates, answered from "
                             "the filter columns alone")

    # repro.analysis.coordinated acts on these.
    group = parser.add_argument_group("coordinated sweeps")
    group.add_argument(
        "--coordinator",
        metavar="HOST:PORT",
        default=None,
        help="serve the requested experiments as leasable work units on this "
        "endpoint (port 0 picks a free port), collect worker pushes, and "
        "merge them into --store byte-identically to a single-host run",
    )
    group.add_argument(
        "--worker",
        metavar="URL",
        default=None,
        help="act as a sweep worker: lease units from the coordinator at URL, "
        "compute them into scratch stores, push results, repeat until done",
    )
    group.add_argument(
        "--transport",
        choices=("http", "dir"),
        default="http",
        help="how a worker ships completed shard stores back: POST to the "
        "coordinator (http, default) or copy into a shared directory (dir)",
    )
    group.add_argument(
        "--transport-dir",
        metavar="DIR",
        default=None,
        help="with --transport dir: the shared directory pushes land in "
        "(must be the coordinator's staging directory, or synced into it)",
    )
    group.add_argument(
        "--units",
        type=int,
        default=4,
        metavar="N",
        help="coordinator: split every experiment's grids into N leasable "
        "shard slices (default 4); more units = finer-grained reassignment",
    )
    group.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SEC",
        help="coordinator: seconds a lease lives without renewal before its "
        "unit is re-leased to another worker (default 60)",
    )
    group.add_argument(
        "--staging",
        metavar="DIR",
        default=None,
        help="coordinator: where pushed shard stores accumulate before the "
        "merge (default: <store>.staging)",
    )
    group.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SEC",
        help="worker: seconds between lease polls when no unit is available",
    )
    group.add_argument(
        "--worker-id",
        metavar="NAME",
        default=None,
        help="worker: stable identity for leases (default: hostname-pid)",
    )
    group.add_argument(
        "--scratch",
        metavar="DIR",
        default=None,
        help="worker: directory for per-unit scratch stores (default: a "
        "fresh temporary directory)",
    )
    group.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SEC",
        help="worker: sleep this long after every completed trial — a pacing "
        "knob for demos and for tests that need a kill window",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="coordinator: re-open an interrupted coordinated sweep from the "
        "write-ahead journal and staged pushes in --staging instead of "
        "starting cold (completed units stay completed; leases that were "
        "live at the crash are requeued)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="coordinator: fail loudly if the sweep has not completed after "
        "this many seconds (default: wait forever)",
    )
    group.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=None,
        help="shared secret for the control plane: the coordinator rejects "
        "any verb without it (HTTP 401), workers send it with every "
        f"request (default: ${SWEEP_TOKEN_ENV}, else no authentication)",
    )
    group.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="coordinator: quarantine a unit after N leases without a "
        f"completion instead of re-leasing it forever (default "
        f"{SWEEP_MAX_ATTEMPTS}; 0 = never quarantine)",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=8,
        metavar="N",
        help="worker: attempts per control-plane call and push before giving "
        "up, with exponential backoff and deterministic jitter (default 8 — "
        "enough patience to ride out a coordinator restart; 1 = fail fast)",
    )
    group.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="worker: inject deterministic faults (dropped/delayed/duplicated "
        "calls, 503s, truncated pushes) on the schedule seeded here — the "
        "recovery machinery must absorb all of it (testing/demo knob)",
    )
    group.add_argument(
        "--chaos-poison",
        type=int,
        default=None,
        metavar="UNIT",
        help="worker: fail every execute of this unit id, simulating a "
        "poison unit the coordinator must quarantine (testing/demo knob)",
    )
    return parser


def run_coordination(
    args: argparse.Namespace,
    grid: Optional[ExperimentGrid],
    scenario: Optional[ScenarioSpec],
) -> Optional[int]:
    """Dispatch --coordinator/--worker through
    :func:`repro.analysis.coordinated.run_coordination`, imported only
    then; None means neither was asked for."""
    if args.coordinator is None and args.worker is None:
        return None
    from .coordinated import run_coordination as coordinate
    return coordinate(args, grid, scenario=scenario)


def apply_scenario_argument(
        args: argparse.Namespace,
) -> Tuple[Optional[ScenarioSpec], Optional[ExperimentGrid]]:
    """Resolve ``--scenario`` against the classic flags, loudly.

    Returns ``(sweep_scenario, grid)``, exactly one of them set. A
    scenario owns its own profile and seed plan, so combining it with
    positional names, ``--full``, or an explicit ``--seed`` is a
    conflict (``--seed`` defaults to ``None`` precisely so an explicit
    value is detectable; it resolves to 1 here). An experiments-kind
    scenario is its grid; without ``--scenario`` the names, profile and
    seed flags make one.
    """
    if args.scenario is None:
        return None, ExperimentGrid(
            names=tuple(args.names) or tuple(sorted(EXPERIMENTS)),
            profile="full" if args.full else "quick",
            seed=args.seed if args.seed is not None else 1)
    if args.worker is not None:
        raise ConfigurationError(
            "--worker takes no --scenario: the coordinator decides which "
            "sweeps this worker runs (its units carry the spec)")
    if args.names:
        raise ConfigurationError(
            f"--scenario and positional names are mutually exclusive: the "
            f"scenario decides what runs (got {args.names})")
    if args.full:
        raise ConfigurationError(
            "--scenario and --full conflict: the scenario fixes its own "
            "profile")
    if args.seed is not None:
        raise ConfigurationError(
            "--scenario and --seed conflict: the scenario fixes its own "
            "seed plan")
    spec = scenario_from_arg(args.scenario)
    if spec.kind == "experiments":
        return None, spec.experiments
    return spec, None


def print_tables(
        scenario: Optional[ScenarioSpec], grid: Optional[ExperimentGrid],
        workers: Optional[int] = None, store=None,
        shard: Optional[Tuple[int, int]] = None,
) -> None:
    """Run the sweep scenario or the grid; print each table as it lands.

    The one output path for tables: local runs, shard runs and the
    coordinator's final render over its read-through store. Above each
    table goes the :data:`TIMING_LINE`. A shard run only populates the
    store (its tables are partial by construction), so it prints one
    line per driver instead; :func:`run_experiment_grid` skips the
    drivers that have no trial sweep to slice.
    """
    def scenario_tables():
        results = scenario.run(workers=workers, store=store, shard=shard)
        yield scenario.name, scenario_table(scenario, results)

    if scenario is not None:
        tables = scenario_tables()
    else:
        tables = run_experiment_grid(grid, workers=workers, store=store,
                                     shard=shard)
        if shard is not None:
            print(f"### shard {shard[0]}/{shard[1]}: drivers without a "
                  f"trial sweep are skipped; they run on the merge host",
                  flush=True)
    start = time.time()
    for name, table in tables:
        took = time.time() - start
        if shard is not None:
            print(f"### shard {shard[0]}/{shard[1]} of {name} populated in "
                  f"{took:.1f}s; store holds {len(store)} result(s)",
                  flush=True)
        else:
            print(f"### done {name} in {took:.1f}s", flush=True)
            print(table.render(), flush=True)
            print(flush=True)
        start = time.time()


def resolve_store_arguments(
        args: argparse.Namespace,
) -> Tuple[Optional[ColumnarStore], Optional[Tuple[int, int]]]:
    """Validate the flag combinations; open the store; build the shard pair."""
    if (args.shard_index is None) != (args.shard_count is None):
        raise ConfigurationError(
            "--shard-index and --shard-count must be given together")
    shard = None
    if args.shard_index is not None:
        shard = (args.shard_index, args.shard_count)
        if not 0 <= args.shard_index < args.shard_count:
            raise ConfigurationError(
                f"--shard-index must be in [0, {args.shard_count}), "
                f"got {args.shard_index}")
        if args.store is None:
            raise ConfigurationError("--shard-index/--shard-count require "
                                     "--store (the slice must be persisted "
                                     "for a later merge)")
    exclusive = [flag for flag, value in (("--merge", args.merge),
                                          ("--compact", args.compact),
                                          ("--query", args.query))
                 if value is not None]
    if len(exclusive) > 1:
        raise ConfigurationError(
            f"{' and '.join(exclusive)} are mutually exclusive store "
            f"commands; run them one at a time")
    if exclusive and args.store is None:
        raise ConfigurationError(
            f"{exclusive[0]} requires --store (the store to operate on)")
    if exclusive and shard is not None:
        raise ConfigurationError(
            f"{exclusive[0]} and --shard-index/--shard-count conflict: "
            f"store commands operate on whole stores, not grid slices")
    if args.store is None or args.compact is not None:
        # --compact reads a legacy store, which never opens live.
        return None, shard
    if (args.query is not None or args.list) and not os.path.isdir(args.store):
        # Opening would create an empty store and "answer" from it.
        flag = "--query" if args.query is not None else "--list"
        raise ConfigurationError(
            f"{flag}: store {args.store!r} does not exist")
    from ..sim.batch.colstore import ColumnarStore
    return ColumnarStore(args.store), shard


def parse_query_filters(terms: List[str]) -> Dict[str, Union[str, int]]:
    """``FIELD=VALUE`` terms -> keyword filters for the store query."""
    filters: Dict[str, Union[str, int]] = {}
    for term in terms:
        field, sep, value = term.partition("=")
        if not sep or not value or field not in QUERY_FIELDS:
            raise ConfigurationError(
                f"--query terms must be FIELD=VALUE with FIELD one of "
                f"{', '.join(QUERY_FIELDS)}; got {term!r}")
        if field in filters:
            raise ConfigurationError(f"--query field {field!r} given twice")
        if field in ("n", "seed"):
            try:
                filters[field] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"--query {field}= takes an integer, got {value!r}")
        else:
            filters[field] = value
    return filters


def run_store_commands(args: argparse.Namespace,
                       store: Optional[ColumnarStore]) -> Optional[int]:
    """Handle --compact, --merge, --query, --store --list; None: keep going."""
    if args.compact is not None:
        from ..sim.batch.colstore import compact
        with compact(args.store, args.compact, verify=True) as dest:
            print(f"compacted {len(dest)} result(s) from legacy store "
                  f"{args.store} into {args.compact}; round trip verified")
        return 0
    if args.merge is not None:
        from ..sim.batch.store import merge_stores
        stats = merge_stores(store, args.merge)
        print(f"merged {len(args.merge)} store(s) into {store.root}: "
              f"{stats['added']} added, {stats['duplicate']} duplicate")
        return 0
    if args.query is not None:
        filters = parse_query_filters(args.query)
        rows = store.aggregate(by=("family", "n"), **filters)
        matched = sum(row["trials"] for row in rows)
        label = " ".join(args.query)
        print(f"{matched} of {len(store)} result(s) match: {label}")
        if rows:
            print(Table(title=f"query {label}", rows=rows).render())
        return 0
    if args.list and store is not None:
        print(store.describe())
        return 0
    return None


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, grid = apply_scenario_argument(args)
        handled = run_coordination(args, grid, scenario)
        if handled is not None:
            return handled
        store, shard = resolve_store_arguments(args)
        handled = run_store_commands(args, store)
        if handled is not None:
            return handled
        if args.list:
            registry = {**EXPERIMENTS, **ABLATIONS}
            for name in sorted(registry):
                doc = (registry[name].__doc__ or "").strip().splitlines()[0]
                print(f"{name}: {doc}")
            print(f"library scenarios (--scenario): {', '.join(available())}")
            return 0
        print_tables(scenario, grid, workers=args.workers, store=store,
                     shard=shard)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
