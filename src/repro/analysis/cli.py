"""Command-line entry point: regenerate experiment and ablation tables.

Usage::

    python -m repro.analysis                 # all experiments, quick
    python -m repro.analysis --full          # full profile (slow)
    python -m repro.analysis e03 e08         # a subset
    python -m repro.analysis a1 a2 a3        # ablations
    python -m repro.analysis --list          # show what exists

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
import sys
import time
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..scenarios import ScenarioSpec, available, scenario_from_arg
from ..sim.batch import ColumnarStore, compact, merge_stores
from .ablations import ABLATIONS
from .coordinated import add_coordination_arguments, run_coordination
from .experiments import EXPERIMENTS, SWEEPING
from .tables import Table, scenario_table

#: Spec fields --query can filter on (column-wise, from the segments).
QUERY_FIELDS = ("task", "family", "n", "seed")


def positive_int(text: str) -> int:
    """argparse type for worker counts (shared with the script CLI)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The durable-sweep flags, shared by this CLI and the script CLI."""
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


def add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    """The declarative-spec flag, shared by this CLI and the script CLI."""
    parser.add_argument("--scenario", metavar="FILE|NAME", default=None,
                        help="run a declarative scenario instead of named "
                             "experiments: a YAML/JSON spec path, or a "
                             "library scenario name "
                             f"({', '.join(available())})")


def apply_scenario_argument(
        args: argparse.Namespace, *, quick: bool, profile_flag_set: bool,
        profile_flag: str,
) -> Tuple[Optional[ScenarioSpec], List[str], bool, int]:
    """Resolve ``--scenario`` against the classic flags, loudly.

    Returns ``(sweep_scenario, names, quick, seed)``. A scenario owns
    its own profile and seed plan, so combining it with positional
    names, the profile flag, or an explicit ``--seed`` is a conflict
    (``--seed`` defaults to ``None`` in both CLIs precisely so an
    explicit value is detectable; it resolves to 1 here).
    Experiments-kind scenarios lower to the classic triple and return
    no scenario; sweep-kind scenarios return the spec itself.
    """
    seed = args.seed if args.seed is not None else 1
    names = list(args.names) or sorted(EXPERIMENTS)
    if args.scenario is None:
        return None, names, quick, seed
    if getattr(args, "worker", None) is not None:
        raise ConfigurationError(
            "--worker takes no --scenario: the coordinator decides which "
            "sweeps this worker runs (its units carry the spec)")
    if args.names:
        raise ConfigurationError(
            f"--scenario and positional names are mutually exclusive: the "
            f"scenario decides what runs (got {args.names})")
    if profile_flag_set:
        raise ConfigurationError(
            f"--scenario and {profile_flag} conflict: the scenario fixes "
            f"its own profile")
    if args.seed is not None:
        raise ConfigurationError(
            "--scenario and --seed conflict: the scenario fixes its own "
            "seed plan")
    spec = scenario_from_arg(args.scenario)
    if spec.kind == "experiments":
        grid = spec.experiments
        return None, list(grid.names), grid.profile == "quick", grid.seed
    return spec, [], quick, seed


def run_scenario_locally(
        scenario: ScenarioSpec, args: argparse.Namespace,
        store: Optional[ColumnarStore], shard: Optional[Tuple[int, int]],
) -> int:
    """Run a sweep-kind scenario in-process; render unless sharding."""
    start = time.time()
    results = scenario.run(workers=args.workers, store=store, shard=shard)
    took = time.time() - start
    if shard is not None:
        print(f"[{scenario.name}: shard {shard[0]}/{shard[1]} populated in "
              f"{took:.1f}s; store now holds {len(store)} result(s)]")
        return 0
    print(scenario_table(scenario, results).render())
    print(f"[{scenario.name}: {took:.1f}s]")
    return 0


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
        with compact(args.store, args.compact, verify=True) as dest:
            print(f"compacted {len(dest)} result(s) from legacy store "
                  f"{args.store} into {args.compact}; round trip verified")
        return 0
    if args.merge is not None:
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
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate the E1-E10 experiment and A1-A3 ablation "
                    "tables (see EXPERIMENTS.md).")
    parser.add_argument("names", nargs="*",
                        help="experiment/ablation names (default: all "
                             "experiments)")
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
    add_scenario_argument(parser)
    add_store_arguments(parser)
    add_coordination_arguments(parser)
    args = parser.parse_args(argv)

    try:
        scenario, names, quick, seed = apply_scenario_argument(
            args, quick=not args.full, profile_flag_set=args.full,
            profile_flag="--full")
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

    registry = {**EXPERIMENTS, **ABLATIONS}
    if args.list:
        for name in sorted(registry):
            doc = (registry[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {doc}")
        print(f"library scenarios (--scenario): {', '.join(available())}")
        return 0

    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try --list",
              file=sys.stderr)
        return 2

    for name in names:
        if shard is not None and name not in SWEEPING:
            # Nothing to slice: the driver has no trial sweep and would
            # store nothing — run it once, on the final rendering host.
            print(f"[{name}: no trial sweep to shard; skipped — it runs "
                  f"on the merge host]")
            continue
        start = time.time()
        kwargs = dict(quick=quick, seed=seed)
        if name in EXPERIMENTS:  # ablations do not fan out
            kwargs.update(workers=args.workers, store=store, shard=shard)
        table = registry[name](**kwargs)
        took = time.time() - start
        if shard is not None:
            # A shard run only populates the store; its tables are
            # partial by construction, so don't render misleading ones.
            print(f"[{name}: shard {shard[0]}/{shard[1]} populated in "
                  f"{took:.1f}s; store now holds {len(store)} result(s)]")
            continue
        print(table.render())
        print(f"[{name}: {took:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
