"""Coordinator/worker CLI modes shared by both experiment front ends.

``python -m repro.analysis`` and ``scripts_run_experiments.py`` both
grow three coordination flags on top of PR 4's store/shard ones:

* ``--coordinator HOST:PORT`` — own the sweep: slice every requested
  experiment's grids into ``--units`` leasable shard slices, serve the
  lease control plane over HTTP, collect pushed shard stores into a
  staging area, and — once every unit completes — merge and repack
  them into ``--store`` byte-identically to a single-host run, then
  render the tables from that store.
* ``--worker URL`` — join a sweep: lease units, run the named driver's
  slice into a scratch store (renewing the lease after every trial via
  ``run_trials``'s progress hook), push the store through the chosen
  ``--transport``, and repeat until the coordinator reports done.
* ``--transport {http,dir}`` — how completed shard stores travel:
  POSTed to the coordinator (default) or copied into a shared
  directory (``--transport-dir``, the coordinator's staging area).

Robustness knobs ride along: ``--retries`` gives workers a
deterministic-jitter retry budget (they survive a coordinator restart
instead of dying with it), ``--max-attempts`` is the coordinator's
poison-unit quarantine threshold, and ``--chaos SEED`` /
``--chaos-poison UNIT`` wrap a worker in the seeded fault-injection
layer (:mod:`repro.sim.batch.faults`) for smoke tests and demos.

The split of labor with :mod:`repro.sim.batch.distrib` is deliberate:
distrib knows leases, transports, and stores but nothing about
experiments; this module binds units to the E1–E11 drivers and to
argparse.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.batch import (
    ColumnarStore,
    CoordinatorClient,
    CoordinatorServer,
    DirTransport,
    FaultPlan,
    FlakyControl,
    FlakyTransport,
    HTTPTransport,
    ReadThroughStore,
    RetryPolicy,
    SweepCoordinator,
    Transport,
    WorkUnit,
    merge_pushed,
    pushed_store_dirs,
    run_worker,
    wait_until_done,
)
from ..sim.batch.colstore import refuse_legacy_store
from ..sim.batch.distrib import (
    DEFAULT_MAX_ATTEMPTS,
    JOURNAL_NAME,
    TOKEN_ENV_VAR,
    default_worker_id,
)
from ..scenarios import ScenarioSpec
from .experiments import EXPERIMENTS, SWEEPING
from .tables import scenario_table

#: File name of the coordinator's quarantine report inside the staging
#: directory (written whenever the sweep finishes; CI uploads it).
QUARANTINE_REPORT_NAME = "quarantine.json"

#: Sweep-name prefix that marks a work unit as carrying a serialized
#: :class:`ScenarioSpec` instead of naming an experiment driver.
SCENARIO_SWEEP_PREFIX = "scenario:"


def add_coordination_arguments(parser: argparse.ArgumentParser) -> None:
    """The coordinated-sweep flags, shared by both experiment CLIs."""
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
        f"request (default: ${TOKEN_ENV_VAR}, else no authentication)",
    )
    group.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="coordinator: quarantine a unit after N leases without a "
        f"completion instead of re-leasing it forever (default "
        f"{DEFAULT_MAX_ATTEMPTS}; 0 = never quarantine)",
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


def resolve_auth_token(args: argparse.Namespace) -> Optional[str]:
    """``--auth-token``, else ``$REPRO_SWEEP_TOKEN``, else open access."""
    if args.auth_token is not None:
        return args.auth_token
    return os.environ.get(TOKEN_ENV_VAR) or None


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Split a ``HOST:PORT`` endpoint; port 0 means pick a free port."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"--coordinator expects HOST:PORT (e.g. 127.0.0.1:0), got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"--coordinator port must be an integer, got {port_text!r}"
        ) from exc
    if not 0 <= port < 65536:
        raise ConfigurationError(f"--coordinator port out of range: {port}")
    return host, port


def experiment_units(
    names: Sequence[str], count: int, quick: bool, seed: int
) -> List[WorkUnit]:
    """Leasable units: ``count`` shard slices of every sweeping driver.

    Non-sweeping drivers (e07/e09/e11) produce no units — they have no
    trial grid to slice or store, so the coordinator runs them itself
    at render time, exactly as PR 4's shard hosts skip them.
    """
    if count < 1:
        raise ConfigurationError(f"--units must be >= 1, got {count}")
    units: List[WorkUnit] = []
    for name in names:
        if name not in SWEEPING:
            continue
        for index in range(count):
            units.append(
                WorkUnit.of(len(units), name, index, count, quick=quick, seed=seed)
            )
    if not units:
        raise ConfigurationError(
            f"nothing to coordinate: none of {list(names)} has a per-seed "
            f"trial sweep (sweeping drivers: {sorted(SWEEPING)})"
        )
    return units


def scenario_units(scenario: ScenarioSpec, count: int) -> List[WorkUnit]:
    """Leasable units: ``count`` shard slices of one sweep scenario.

    The spec itself rides along in the unit payload (canonical JSON, so
    the journal stays content-addressed and a worker needs no scenario
    file on disk); workers rebuild it with :meth:`ScenarioSpec.from_dict`
    and run their ``(index, count)`` slice of its compiled grid.
    """
    if count < 1:
        raise ConfigurationError(f"--units must be >= 1, got {count}")
    if scenario.kind != "sweep":
        raise ConfigurationError(
            f"scenario {scenario.name!r} is an experiments grid; lower it "
            f"to experiment names before building units"
        )
    payload = scenario.canonical_json()
    sweep = SCENARIO_SWEEP_PREFIX + scenario.name
    return [
        WorkUnit.of(index, sweep, index, count, spec=payload)
        for index in range(count)
    ]


def execute_experiment_unit(
    unit: WorkUnit,
    store: ColumnarStore,
    progress: Callable[..., None],
    workers: Optional[int] = None,
) -> None:
    """Run one unit: the named driver's ``(index, count)`` slice.

    ``scenario:`` units carry their whole spec in the payload instead
    of naming a driver — rebuild it and run the slice directly.
    """
    if unit.sweep.startswith(SCENARIO_SWEEP_PREFIX):
        spec = ScenarioSpec.from_dict(json.loads(str(unit.param("spec"))))
        spec.run(
            workers=workers,
            store=store,
            shard=(unit.index, unit.count),
            progress=progress,
        )
        return
    driver = EXPERIMENTS.get(unit.sweep)
    if driver is None:
        raise ConfigurationError(
            f"unknown sweep {unit.sweep!r}; workers only run experiment "
            f"drivers ({sorted(EXPERIMENTS)})"
        )
    driver(
        quick=bool(unit.param("quick", True)),
        seed=int(unit.param("seed", 0)),
        workers=workers,
        store=store,
        shard=(unit.index, unit.count),
        progress=progress,
    )


def run_coordination(
    args: argparse.Namespace,
    names: Sequence[str],
    quick: bool,
    seed: int,
    scenario: Optional[ScenarioSpec] = None,
) -> Optional[int]:
    """Dispatch --coordinator/--worker; None means neither was asked for.

    ``scenario`` is a sweep-kind :class:`ScenarioSpec` to coordinate in
    place of the named experiments (experiments-kind scenarios are
    lowered to ``names``/``quick``/``seed`` before this is called).
    """
    if args.coordinator is None and args.worker is None:
        return None
    if args.coordinator is not None and args.worker is not None:
        raise ConfigurationError("--coordinator and --worker are mutually exclusive")
    if args.shard_index is not None or args.shard_count is not None:
        raise ConfigurationError(
            "--shard-index/--shard-count are the manual sharding flow; the "
            "coordinator assigns slices dynamically — drop them"
        )
    if args.merge is not None:
        raise ConfigurationError(
            "--merge is the manual flow; the coordinator merges pushed "
            "stores itself — drop it"
        )
    if args.compact is not None or args.query is not None:
        raise ConfigurationError(
            "--compact/--query are offline store commands; run them "
            "against --store without --coordinator/--worker"
        )
    if args.worker is not None:
        if args.resume:
            raise ConfigurationError(
                "--resume is a coordinator flag: workers have no journal to "
                "resume from — drop it"
            )
        if args.timeout is not None:
            raise ConfigurationError(
                "--timeout is a coordinator flag (the sweep deadline); "
                "workers already stop when the coordinator goes away"
            )
        if args.max_attempts is not None:
            raise ConfigurationError(
                "--max-attempts is a coordinator flag (the quarantine "
                "threshold); workers just report failures — drop it"
            )
        return run_worker_mode(args)
    return run_coordinator_mode(args, names, quick, seed, scenario=scenario)


def open_coordinator(
    args: argparse.Namespace, units: Sequence[WorkUnit], journal: str
) -> SweepCoordinator:
    """A journaled coordinator: fresh, or recovered via ``--resume``.

    A cold start refuses to overwrite an existing journal — that is an
    interrupted sweep, and silently forgetting its lease history is
    exactly the failure mode the journal exists to prevent.
    """
    max_attempts = resolve_max_attempts(args)
    if args.resume:
        if not os.path.exists(journal):
            raise ConfigurationError(
                f"--resume: no journal at {journal}; nothing to resume "
                f"(start without --resume to begin a fresh sweep)"
            )
        # Fail before serving: a legacy (JSONL-shard) staged store would
        # otherwise only be refused at merge time, after the fleet ran.
        staging = os.path.dirname(journal)
        for path in pushed_store_dirs(staging) + [os.path.join(staging, "_merged")]:
            refuse_legacy_store(path)
        coordinator = SweepCoordinator.recover(
            units, journal, lease_ttl=args.lease_ttl, max_attempts=max_attempts
        )
        status = coordinator.status()
        print(
            f"resumed from {journal}: {status['completed']}/{status['total']} "
            f"unit(s) already complete, {status['pending']} requeued or "
            f"pending, {status['quarantined']} quarantined",
            flush=True,
        )
        return coordinator
    if os.path.exists(journal) and os.path.getsize(journal) > 0:
        raise ConfigurationError(
            f"journal {journal} already exists — pass --resume to continue "
            f"that sweep, or remove the staging directory to start cold"
        )
    return SweepCoordinator(
        units,
        lease_ttl=args.lease_ttl,
        journal_path=journal,
        max_attempts=max_attempts,
    )


def resolve_max_attempts(args: argparse.Namespace) -> Optional[int]:
    """``--max-attempts``: default cap, explicit cap, or 0 = uncapped."""
    if args.max_attempts is None:
        return DEFAULT_MAX_ATTEMPTS
    if args.max_attempts == 0:
        return None
    if args.max_attempts < 0:
        raise ConfigurationError(
            f"--max-attempts must be >= 0, got {args.max_attempts}"
        )
    return args.max_attempts


def report_quarantine(status: dict, staging: str) -> str:
    """Write ``quarantine.json`` and print quarantined units loudly.

    Always written (an empty report is a useful artifact: it proves the
    sweep drained cleanly); returns the report path. A quarantined unit
    is a slice the whole fleet failed at — silence here would let a
    "done" line paper over missing work.
    """
    path = os.path.join(staging, QUARANTINE_REPORT_NAME)
    os.makedirs(staging, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(status["quarantine"], handle, indent=2, sort_keys=True)
        handle.write("\n")
    if status["quarantined"]:
        print(
            f"WARNING: {status['quarantined']} unit(s) QUARANTINED after "
            f"exhausting their attempt cap (report: {path}):",
            flush=True,
        )
        entries = sorted(status["quarantine"].items(), key=lambda p: int(p[0]))
        for unit_id, entry in entries:
            print(
                f"  unit {unit_id} ({entry['sweep']} slice "
                f"{entry['index']}/{entry['count']}): {entry['attempts']} "
                f"attempt(s), last worker {entry['worker']!r}, last error: "
                f"{entry['error'] or '<none reported>'}",
                flush=True,
            )
    return path


def run_coordinator_mode(
    args: argparse.Namespace,
    names: Sequence[str],
    quick: bool,
    seed: int,
    scenario: Optional[ScenarioSpec] = None,
) -> int:
    """Serve units, wait for the fleet, merge, repack, render tables."""
    if args.store is None:
        raise ConfigurationError(
            "--coordinator requires --store DIR: the final merged store is "
            "the whole point of the exercise"
        )
    host, port = parse_endpoint(args.coordinator)
    if scenario is not None:
        units = scenario_units(scenario, args.units)
    else:
        unknown = [name for name in names if name not in EXPERIMENTS]
        if unknown:
            raise ConfigurationError(
                f"unknown experiment(s) for --coordinator: {unknown}; choose "
                f"from {sorted(EXPERIMENTS)}"
            )
        units = experiment_units(names, args.units, quick, seed)
    staging = args.staging or args.store.rstrip(os.sep) + ".staging"
    journal = os.path.join(staging, JOURNAL_NAME)
    coordinator = open_coordinator(args, units, journal)
    token = resolve_auth_token(args)
    start = time.time()
    staging_store = None
    final = None
    try:
        server = CoordinatorServer(coordinator, staging, host, port, auth_token=token)
        with server:
            print(f"coordinator listening on {server.url}", flush=True)
            print(
                f"serving {len(units)} unit(s) "
                f"({args.units} slice(s) x {sorted({u.sweep for u in units})}), "
                f"lease ttl {args.lease_ttl:.0f}s, staging at {staging}, "
                f"journal at {journal}"
                + (", auth required" if token else ""),
                flush=True,
            )
            wait_until_done(coordinator, timeout=args.timeout)
            # Merge while the server still answers /lease, so draining
            # workers get a clean "done" instead of a connection error.
            staging_store = ColumnarStore(os.path.join(staging, "_merged"))
            pushes = pushed_store_dirs(staging)
            stats = merge_pushed(staging, staging_store)
            print(
                f"merged {len(pushes)} push(es): {stats['added']} added, "
                f"{stats['duplicate']} duplicate",
                flush=True,
            )
        status = coordinator.status()
        report_quarantine(status, staging)
        # Cells a quarantined unit never delivered are recomputed
        # locally into the staging layer, so the repack below replays
        # from a full cache. (Backfilling first matters for byte
        # identity: a repack with cache misses would append the
        # missing cells after the cached ones, out of grid order.)
        units_by_id = {unit.unit_id: unit for unit in units}
        for unit_id in status["quarantine"]:
            unit = units_by_id[int(unit_id)]
            print(
                f"recomputing quarantined unit {unit_id} ({unit.sweep} "
                f"slice {unit.index}/{unit.count}) locally",
                flush=True,
            )
            execute_experiment_unit(
                unit, staging_store, lambda *_: None, workers=args.workers
            )
        # Repack through a read-through layer: lookups replay in grid
        # order, so the final store's bytes match a single-host run no
        # matter what order worker pushes arrived in — or which units
        # the fleet could not finish (the quarantine report above names
        # them; their results exist thanks to the local backfill).
        final = ColumnarStore(args.store)
        layered = ReadThroughStore(final, staging_store)
        if scenario is not None:
            results = scenario.run(workers=args.workers, store=layered)
            print(scenario_table(scenario, results).render())
            print()
        else:
            for name in names:
                table = EXPERIMENTS[name](
                    quick=quick, seed=seed, workers=args.workers, store=layered
                )
                print(table.render())
                print()
        print(
            f"coordinated sweep done in {time.time() - start:.1f}s: "
            f"units={status['completed']} "
            f"quarantined={status['quarantined']} "
            f"reassigned={status['reassigned']} "
            f"late={status['late']}; store {final.root} holds "
            f"{len(final)} result(s)",
            flush=True,
        )
    finally:
        # Store file handles would otherwise leak for the life of the
        # process (and pin the journal open across a --resume cycle).
        if staging_store is not None:
            staging_store.close()
        if final is not None:
            final.close()
        coordinator.close()
    return 0


def run_worker_mode(args: argparse.Namespace) -> int:
    """Lease-execute-push-complete against a running coordinator."""
    if getattr(args, "names", None):
        raise ConfigurationError(
            "--worker takes no experiment names: the coordinator decides "
            "which sweeps this worker runs"
        )
    if args.store is not None:
        raise ConfigurationError(
            "--worker computes into per-unit scratch stores and ships them "
            "via the transport; drop --store (use --scratch to place the "
            "scratch stores)"
        )
    token = resolve_auth_token(args)
    worker_id = args.worker_id or default_worker_id()
    transport: Transport
    if args.transport == "dir":
        if args.transport_dir is None:
            raise ConfigurationError(
                "--transport dir requires --transport-dir (the coordinator's "
                "staging directory, shared or synced)"
            )
        transport = DirTransport(args.transport_dir)
    else:
        transport = HTTPTransport(args.worker, token=token)
    control = CoordinatorClient(args.worker, token=token)
    if args.chaos is not None:
        control = FlakyControl(
            control,
            FaultPlan(
                args.chaos,
                scope=f"control:{worker_id}",
                drop=0.06,
                delay=0.06,
                duplicate=0.06,
                error=0.06,
            ),
        )
        transport = FlakyTransport(
            transport,
            FaultPlan(
                args.chaos,
                scope=f"push:{worker_id}",
                drop=0.1,
                delay=0.1,
                duplicate=0.1,
                error=0.1,
                truncate=0.25,
            ),
        )
    retry = RetryPolicy(
        attempts=args.retries, base_delay=0.25, max_delay=2.0, seed=worker_id
    )
    scratch = args.scratch or tempfile.mkdtemp(prefix="repro-worker-")
    throttle = args.throttle
    poison = args.chaos_poison

    def execute(unit: WorkUnit, store: ColumnarStore, renew: Callable[..., None]):
        if poison is not None and unit.unit_id == poison:
            raise RuntimeError(f"chaos: unit {unit.unit_id} is poisoned on this fleet")
        if throttle > 0:

            def progress(spec, result):
                renew()
                time.sleep(throttle)

        else:
            progress = renew
        execute_experiment_unit(unit, store, progress, workers=args.workers)

    print(
        f"worker {worker_id} polling {args.worker} "
        f"(transport={args.transport}, scratch={scratch}, "
        f"retries={args.retries}"
        + (f", chaos seed {args.chaos}" if args.chaos is not None else "")
        + ")",
        flush=True,
    )
    stats = run_worker(
        control,
        execute,
        transport,
        scratch,
        worker_id=worker_id,
        poll=args.poll,
        retry=retry,
    )
    print(
        f"worker done: {stats['completed']} unit(s) completed "
        f"({stats['late']} late), {stats['failed']} failed, "
        f"{stats['released']} released, {stats['retries']} retrie(s), "
        f"{stats['idle_polls']} idle poll(s)",
        flush=True,
    )
    return 0
