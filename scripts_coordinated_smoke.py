"""Coordinated-sweep smoke: kill a process mid-sweep, still byte-identical.

CI runs this after the test suite, once per victim. One coordinator and
two workers are launched as real subprocesses; then, depending on
``--kill``:

* ``worker`` (default) — worker A is throttled so its units take
  seconds, then SIGKILLed while it provably holds a lease. The lease
  expires and its unit is re-leased to worker B.
* ``coordinator`` — the coordinator itself is SIGKILLed once the sweep
  is provably mid-flight (at least one unit completed, at least one
  lease live). The orphaned workers drain and exit; a second
  coordinator restarts with ``--resume``, replays the write-ahead
  journal, requeues the interrupted lease, and a fresh worker fleet
  finishes the sweep.

``--chaos`` runs the nastiest scenario instead: every worker runs
under the seeded fault-injection layer (dropped/delayed/duplicated
control calls, 503s, truncated pushes), one unit is poisoned so the
whole fleet fails it, and the coordinator is SIGKILLed mid-sweep and
restarted with ``--resume`` on the same port. The SAME worker fleet
must ride out the outage on its retry budget (no relaunch), the
poison unit must be quarantined after exactly ``--max-attempts``
attempts and reported in ``quarantine.json``, and the coordinator must
backfill it locally.

Every scenario ends the same way: the merged-and-repacked store must
come out byte-for-byte identical to a single-host run — the
coordinator's core guarantee, exercised through genuine process death
rather than a simulated one. The store directories (journal and
quarantine report included) are left on disk for CI to upload as
artifacts.

Usage::

    PYTHONPATH=src python scripts_coordinated_smoke.py \\
        [--dir coordinated-store] [--transport http|dir] \\
        [--kill worker|coordinator] [--chaos [--chaos-seed N]]
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

_REPO = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_REPO, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis import EXPERIMENTS  # noqa: E402
from repro.scenarios import scenario_from_arg  # noqa: E402
from repro.sim.batch import ColumnarStore  # noqa: E402
from repro.sim.batch.distrib import JOURNAL_NAME  # noqa: E402

_URL_PATTERN = re.compile(r"coordinator listening on (http://\S+)")
_SUMMARY_PATTERN = re.compile(
    r"units=(\d+) quarantined=(\d+) reassigned=(\d+) late=(\d+)"
)


def _child_env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
    return env


def _spawn(argv, log_path):
    handle = open(log_path, "w", encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable] + argv,
        stdout=handle,
        stderr=subprocess.STDOUT,
        env=_child_env(),
        cwd=_REPO,
    )
    process.log_handle = handle
    process.log_path = log_path
    return process


def _wait_for(predicate, timeout, message, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def _read_log(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _status(url):
    try:
        with urllib.request.urlopen(f"{url}/status", timeout=5) as response:
            return json.loads(response.read())
    except OSError:
        return None


def _store_bytes(root):
    contents = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _coordinator_argv(
    args, merged_dir, staging_dir, resume=False, endpoint="127.0.0.1:0", extra=()
):
    if args.scenario is not None:
        # A scenario owns its seed plan, so --seed must stay home.
        what = ["--scenario", args.scenario]
    else:
        what = [args.experiment, "--seed", str(args.seed)]
    argv = [
        "-m",
        "repro.analysis",
        *what,
        "--store",
        merged_dir,
        "--staging",
        staging_dir,
        "--coordinator",
        endpoint,
        "--units",
        "4",
        "--lease-ttl",
        "3",
    ]
    argv += list(extra)
    if resume:
        argv.append("--resume")
    return argv


def _worker_argv(args, url, worker_id, throttle, staging_dir, extra=()):
    argv = [
        "-m",
        "repro.analysis",
        "--worker",
        url,
        "--worker-id",
        worker_id,
        "--poll",
        "0.1",
        "--throttle",
        str(throttle),
        "--transport",
        args.transport,
    ]
    if args.transport == "dir":
        argv += ["--transport-dir", staging_dir]
    argv += list(extra)
    return argv


def _coordinator_url(coordinator):
    def probe():
        match = _URL_PATTERN.search(_read_log(coordinator.log_path))
        return match.group(1) if match else None

    url = _wait_for(probe, 30, "the coordinator URL")
    print(f"coordinator up at {url}", flush=True)
    return url


def _reap(processes):
    for process in processes:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.log_handle.close()


def _parse_summary(coordinator):
    log = _read_log(coordinator.log_path)
    if coordinator.returncode != 0:
        print(log)
        raise AssertionError(f"coordinator exited {coordinator.returncode}")
    summary = _SUMMARY_PATTERN.search(log)
    assert summary, f"no summary line in coordinator output:\n{log}"
    units, quarantined, reassigned, late = map(int, summary.groups())
    print(
        f"coordinator summary: units={units} quarantined={quarantined} "
        f"reassigned={reassigned} late={late}",
        flush=True,
    )
    return units, quarantined, reassigned, late


def _worker_kill_scenario(args, merged_dir, staging_dir):
    """SIGKILL a lease-holding worker; the sweep must finish without it."""
    coordinator = _spawn(
        _coordinator_argv(args, merged_dir, staging_dir),
        os.path.join(args.dir, "coordinator.log"),
    )
    workers = []
    try:
        url = _coordinator_url(coordinator)
        # Worker A is slow on purpose: ~0.5s per trial gives a wide
        # window in which it provably holds a lease when we kill it.
        victim = _spawn(
            _worker_argv(args, url, "workerA", 0.5, staging_dir),
            os.path.join(args.dir, "workerA.log"),
        )
        survivor = _spawn(
            _worker_argv(args, url, "workerB", 0.05, staging_dir),
            os.path.join(args.dir, "workerB.log"),
        )
        workers = [victim, survivor]

        def victim_holds_lease():
            status = _status(url)
            if status is None:
                return None
            held = [
                unit_id
                for unit_id, lease in status["leases"].items()
                if lease["worker"] == "workerA"
            ]
            return held or None

        held = _wait_for(victim_holds_lease, 60, "workerA to hold a lease")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        print(f"killed workerA while it held unit(s) {held}", flush=True)

        coordinator.wait(timeout=args.timeout)
        survivor.wait(timeout=60)
    finally:
        _reap([coordinator] + workers)

    units, quarantined, reassigned, late = _parse_summary(coordinator)
    assert reassigned >= 1, (
        "the killed worker's lease was never reassigned — the kill window "
        "missed; see workerA.log / coordinator.log"
    )
    assert quarantined == 0, "a healthy sweep quarantined a unit"
    return units, quarantined, reassigned, late


def _coordinator_kill_scenario(args, merged_dir, staging_dir):
    """SIGKILL the coordinator mid-sweep; --resume must finish the job."""
    coordinator = _spawn(
        _coordinator_argv(args, merged_dir, staging_dir),
        os.path.join(args.dir, "coordinator.log"),
    )
    workers = []
    try:
        url = _coordinator_url(coordinator)
        # Worker A is throttled so at least one lease is reliably live
        # at kill time; worker B races ahead so at least one unit is
        # reliably complete (and its push durably staged).
        workers = [
            _spawn(
                _worker_argv(args, url, "workerA", 0.5, staging_dir),
                os.path.join(args.dir, "workerA.log"),
            ),
            _spawn(
                _worker_argv(args, url, "workerB", 0.05, staging_dir),
                os.path.join(args.dir, "workerB.log"),
            ),
        ]

        def sweep_mid_flight():
            status = _status(url)
            if status is None:
                return None
            if status["completed"] >= 1 and status["leased"] >= 1:
                return status
            return None

        status = _wait_for(
            sweep_mid_flight, 120, "a completed unit alongside a live lease"
        )
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.wait(timeout=30)
        print(
            f"killed the coordinator with {status['completed']} unit(s) "
            f"complete and {status['leased']} lease(s) live",
            flush=True,
        )
        # The orphans notice on their next lease/push and exit cleanly.
        for worker in workers:
            worker.wait(timeout=120)
    finally:
        _reap([coordinator] + workers)

    journal = os.path.join(staging_dir, JOURNAL_NAME)
    assert os.path.exists(journal), f"no write-ahead journal at {journal}"

    resumed = _spawn(
        _coordinator_argv(args, merged_dir, staging_dir, resume=True),
        os.path.join(args.dir, "coordinator-resumed.log"),
    )
    fresh = []
    try:
        url = _coordinator_url(resumed)
        fresh = [
            _spawn(
                _worker_argv(args, url, "workerC", 0.02, staging_dir),
                os.path.join(args.dir, "workerC.log"),
            ),
            _spawn(
                _worker_argv(args, url, "workerD", 0.02, staging_dir),
                os.path.join(args.dir, "workerD.log"),
            ),
        ]
        resumed.wait(timeout=args.timeout)
        for worker in fresh:
            worker.wait(timeout=60)
    finally:
        _reap([resumed] + fresh)

    resumed_log = _read_log(resumed.log_path)
    assert "resumed from" in resumed_log, (
        f"the restarted coordinator did not replay the journal:\n{resumed_log}"
    )
    units, quarantined, reassigned, late = _parse_summary(resumed)
    assert reassigned >= 1, (
        "the lease that was live at the kill was never requeued — recovery "
        "missed it; see coordinator-resumed.log / journal.jsonl"
    )
    assert quarantined == 0, "a healthy sweep quarantined a unit"
    return units, quarantined, reassigned, late


_POISON_UNIT = 2
_MAX_ATTEMPTS = 3


def _chaos_scenario(args, merged_dir, staging_dir):
    """Faults everywhere, one poison unit, and a coordinator SIGKILL.

    The same two workers must ride out all three on their retry budget:
    nobody relaunches them, the poison unit is quarantined after
    exactly ``_MAX_ATTEMPTS`` attempts, and the resumed coordinator
    backfills its slice so the store still comes out byte-identical.
    """
    # A fixed port (instead of :0) so the resumed coordinator rebinds
    # the URL the surviving workers are already retrying against.
    endpoint = f"127.0.0.1:{_free_port()}"
    coordinator_extra = ["--max-attempts", str(_MAX_ATTEMPTS)]
    worker_extra = [
        "--retries",
        "10",
        "--chaos",
        str(args.chaos_seed),
        "--chaos-poison",
        str(_POISON_UNIT),
    ]
    coordinator = _spawn(
        _coordinator_argv(
            args, merged_dir, staging_dir, endpoint=endpoint, extra=coordinator_extra
        ),
        os.path.join(args.dir, "coordinator.log"),
    )
    workers = []
    resumed = None
    try:
        url = _coordinator_url(coordinator)
        # Worker A is throttled so a lease is reliably live at kill
        # time; worker B races ahead so a completion lands first.
        workers = [
            _spawn(
                _worker_argv(
                    args, url, "workerA", 0.3, staging_dir, extra=worker_extra
                ),
                os.path.join(args.dir, "workerA.log"),
            ),
            _spawn(
                _worker_argv(
                    args, url, "workerB", 0.05, staging_dir, extra=worker_extra
                ),
                os.path.join(args.dir, "workerB.log"),
            ),
        ]

        def sweep_mid_flight():
            status = _status(url)
            if status is None:
                return None
            if status["completed"] >= 1 and status["leased"] >= 1:
                return status
            return None

        status = _wait_for(
            sweep_mid_flight, 120, "a completed unit alongside a live lease"
        )
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.wait(timeout=30)
        print(
            f"killed the coordinator with {status['completed']} unit(s) "
            f"complete and {status['leased']} lease(s) live",
            flush=True,
        )
        # The acceptance bar: the SAME fleet survives the outage on its
        # retry budget. Nobody may relaunch a worker.
        for worker in workers:
            assert worker.poll() is None, (
                f"{os.path.basename(worker.log_path)} died with the "
                f"coordinator instead of retrying through the outage"
            )
        resumed = _spawn(
            _coordinator_argv(
                args,
                merged_dir,
                staging_dir,
                resume=True,
                endpoint=endpoint,
                extra=coordinator_extra,
            ),
            os.path.join(args.dir, "coordinator-resumed.log"),
        )
        _coordinator_url(resumed)
        resumed.wait(timeout=args.timeout)
        for worker in workers:
            worker.wait(timeout=120)
    finally:
        _reap([coordinator] + workers + ([resumed] if resumed else []))

    resumed_log = _read_log(resumed.log_path)
    assert "resumed from" in resumed_log, (
        f"the restarted coordinator did not replay the journal:\n{resumed_log}"
    )
    for worker in workers:
        assert worker.returncode == 0, (
            f"{os.path.basename(worker.log_path)} exited "
            f"{worker.returncode}:\n{_read_log(worker.log_path)}"
        )
    units, quarantined, reassigned, late = _parse_summary(resumed)
    assert quarantined == 1, (
        f"expected exactly the poison unit quarantined, got {quarantined}; "
        f"see coordinator-resumed.log"
    )
    report_path = os.path.join(staging_dir, "quarantine.json")
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    entry = report.get(str(_POISON_UNIT))
    assert entry is not None, (
        f"quarantine report {report_path} does not name unit "
        f"{_POISON_UNIT}: {report}"
    )
    assert entry["attempts"] == _MAX_ATTEMPTS, (
        f"poison unit burned {entry['attempts']} attempt(s), expected "
        f"exactly --max-attempts={_MAX_ATTEMPTS}"
    )
    # Normally the worker's RuntimeError; if the final attempt's /fail
    # was lost to the kill, the lease-side breaker reports the generic
    # dead-worker diagnosis instead. Both name a real cause.
    assert "poisoned" in entry["error"] or "expired" in entry["error"], (
        f"unexpected last error: {entry}"
    )
    print(
        f"quarantine report OK: unit {_POISON_UNIT} quarantined after "
        f"{entry['attempts']} attempt(s), last error {entry['error']!r}",
        flush=True,
    )
    retries = 0
    for worker in workers:
        match = re.search(r"(\d+) retrie\(s\)", _read_log(worker.log_path))
        assert match, f"no worker summary in {worker.log_path}"
        retries += int(match.group(1))
    assert retries >= 1, "chaos never forced a retry — the fault plan is inert"
    print(f"fleet absorbed {retries} retrie(s) without a relaunch", flush=True)
    return units, quarantined, reassigned, late


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default="coordinated-store",
        help="work directory (kept on disk for artifact upload)",
    )
    parser.add_argument("--transport", choices=("http", "dir"), default="http")
    parser.add_argument(
        "--kill",
        choices=("worker", "coordinator"),
        default="worker",
        help="which process gets the SIGKILL mid-sweep (default: worker)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the chaos scenario instead of --kill: fault-injected "
        "workers, a poisoned unit, and a coordinator SIGKILL + --resume",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=11,
        help="seed for the workers' deterministic fault plans (default 11)",
    )
    parser.add_argument("--experiment", default="e06")
    parser.add_argument(
        "--scenario",
        metavar="FILE|NAME",
        default=None,
        help="coordinate a sweep-kind scenario instead of --experiment "
        "(library name or YAML/JSON path; its units carry the spec)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=240.0)
    args = parser.parse_args(argv)
    if os.path.isdir(args.dir):
        # Leftover stores from a previous run would turn the sweep into
        # a cache replay and rob the kill of its target; the smoke must
        # be rerunnable against the same --dir.
        shutil.rmtree(args.dir)

    baseline_dir = os.path.join(args.dir, "baseline")
    merged_dir = os.path.join(args.dir, "merged")
    staging_dir = os.path.join(args.dir, "staging")

    target = args.scenario if args.scenario is not None else args.experiment
    print(f"single-host baseline: {target} -> {baseline_dir}", flush=True)
    with ColumnarStore(baseline_dir) as baseline_store:
        if args.scenario is not None:
            scenario_from_arg(args.scenario).run(store=baseline_store)
        else:
            EXPERIMENTS[args.experiment](
                quick=True, seed=args.seed, store=baseline_store
            )
        baseline_count = len(baseline_store)
    assert baseline_count > 0, "baseline sweep stored nothing"

    if args.chaos:
        units, quarantined, reassigned, late = _chaos_scenario(
            args, merged_dir, staging_dir
        )
        verdict = (
            "chaos faults absorbed, the poison unit quarantined, and the "
            "coordinator SIGKILLed and resumed"
        )
    elif args.kill == "coordinator":
        units, quarantined, reassigned, late = _coordinator_kill_scenario(
            args, merged_dir, staging_dir
        )
        verdict = "coordinator SIGKILLed and resumed"
    else:
        units, quarantined, reassigned, late = _worker_kill_scenario(
            args, merged_dir, staging_dir
        )
        verdict = "a worker SIGKILLed"

    baseline = _store_bytes(baseline_dir)
    merged = _store_bytes(merged_dir)
    assert merged == baseline, (
        f"coordinated store differs from single-host baseline: "
        f"{sorted(set(baseline) ^ set(merged))} differ in name, or contents "
        f"diverge"
    )
    print(
        f"coordinated-sweep smoke OK: {args.transport} transport, {verdict}, "
        f"{units} units, {quarantined} quarantined, {reassigned} reassigned, "
        f"{late} late, store byte-identical to the single-host baseline "
        f"({baseline_count} result(s))",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
