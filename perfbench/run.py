"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload paper-quick --seed 0 --seconds 15 --trace 0

Run from the repository root. The program under test is imported from
``src/``. Progress goes to stderr; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from untraced
repetitions of the timed body, repeated for ``--seconds`` and at least
four times after one untimed warm-up:

- ``setup_s``: median of three set-ups, each the import time (measured
  in this process, then in probe interpreters) plus input building;
- ``wall_s``: wall time of one repetition, as the sum over its steps
  (workloads.py) of each step's median time;
- ``peak_rss_mb``: median over repetitions of the process's peak
  resident memory while the body runs (Linux resets the high-water
  mark before each; elsewhere it is the whole run's peak).

Both times are rescaled to a reference host speed. On a shared machine
other tenants slow every process by up to a third for tens of seconds
to minutes, longer than a run, so raw times of one commit spread about
as much as a regression bound. A fixed kernel (``probe_host``:
interpreter loop plus array sorts) is timed before every set-up and
repetition, and times are reported as measured × ``PROBE_REFERENCE_S``
/ median probe time. The probe runs no program code, so a slower
program still reads slower; the raw times and the probe median go to
stderr.

``--trace 1`` repeats the untraced measurement as the overhead
baseline, then runs one traced repetition and reports the per-layer
metrics of ``spans.PER_LAYER``; the spans are written to
``.perfbench/trace/<workload>.npz``.

Every repetition's outputs are checked; ``attempted``/``failed`` count
those checks. ``--profile tiny`` runs toy sizes for the self-test.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPS = 3
#: Per-step medians over at least four repetitions, so a run shrugs
#: off a step slowed by other tenants of the machine.
MIN_REPS = 4
#: Seconds ``probe_host`` takes on the reference host (about its time on
#: an idle 2.1 GHz Xeon vCPU).
PROBE_REFERENCE_S = 0.1

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads, spans\n"
    "print(time.perf_counter() - start)\n"
)

#: Environment knobs of the program that would change what is measured.
PROGRAM_ENV = ("REPRO_WORKERS", "REPRO_GRAPH_CACHE")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def probe_import_seconds() -> float:
    """Import time of the benchmark's modules in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def probe_host() -> float:
    """Seconds for a fixed interpreter-and-memory kernel: the host's speed.

    It allocates and frees its arrays, so it runs outside the windows
    in which peak memory is read.
    """
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    data = np.arange(1_000_000, dtype=np.int64) * 2654435761 % 2**31
    for _ in range(3):
        np.sort(data)
    return time.perf_counter() - start


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since the last reset, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Timings, memory peaks and check outcomes of a run's repetitions."""

    def __init__(self):
        self.times = []
        self.steps = {}
        self.peaks = []
        self.probes = []
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_checks(self, checks):
        self.attempted += len(checks)
        for label, ok in checks:
            if not ok:
                self.failed += 1
                self.failures.append(label)

    def add_samples(self, samples):
        for key, values in samples.items():
            self.samples.setdefault(key, []).extend(values)

    def step_median(self, name):
        return statistics.median(self.steps[name])

    def wall_s(self):
        return sum(self.step_median(name) for name in self.steps)

    def host_scale(self):
        """Factor from this run's host speed to the reference host's."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def repeat(workload, inputs, seconds, tally):
    """Run the untraced body for ``seconds`` (and MIN_REPS times)."""
    # One untimed (but checked) warm-up first: the first repetition in a
    # process also pays for lazy imports and for growing the allocator's
    # heap, and is consistently the slowest.
    outputs = workload.body(inputs)
    tally.add_checks(workload.check(inputs, outputs))
    workload.release(inputs, outputs)
    clock = time.perf_counter
    started = clock()
    while len(tally.times) < MIN_REPS or clock() - started < seconds:
        gc.collect()  # the previous repetition's garbage is not this one's cost
        tally.probes.append(probe_host())
        reset_peak_rss()
        t = clock()
        outputs, step_seconds = workload.timed(inputs)
        tally.times.append(clock() - t)
        tally.peaks.append(peak_rss_mb())
        for name, value in step_seconds.items():
            tally.steps.setdefault(name, []).append(value)
        tally.add_checks(workload.check(inputs, outputs))
        tally.add_samples(workload.samples(outputs))
        workload.release(inputs, outputs)


def set_up(workload, args, sizes, run_dir, import_seconds, repetitions, tally):
    """Build the inputs ``repetitions`` times; returns (inputs, raw setup_s)."""
    builds = []
    inputs = None
    for i in range(repetitions):
        tally.probes.append(probe_host())
        if i:
            import_seconds.append(probe_import_seconds())
        t = time.perf_counter()
        inputs = workload.setup(args.seed, sizes, run_dir / f"setup-{i}")
        builds.append(time.perf_counter() - t)
        if i + 1 < repetitions:
            inputs = None
            shutil.rmtree(run_dir / f"setup-{i}", ignore_errors=True)
    return inputs, statistics.median(import_seconds) + statistics.median(builds)


def traced_metrics(workload, inputs, tally, spans, registries):
    """One traced repetition; returns every per-layer metric."""
    tracer = spans.Tracer()
    tracer.install(registries)
    try:
        outputs, traced_s = tracer.run("traced", lambda: workload.body(inputs))
    finally:
        tracer.uninstall()
    tally.add_checks(workload.check(inputs, outputs))
    written = workload.bytes_written(outputs)
    workload.release(inputs, outputs)

    layers = tracer.layer_times()
    tracer.require_layers(workload.name, layers)
    metrics = tracer.metrics()
    metrics["store.bytes_written"] = written
    for step in ("ingest", "load", "merge"):
        value = tally.step_median(step) if step in tally.steps else 0.0
        metrics[f"store.{step}_s"] = value
    queries_ms = [1000.0 * s for s in tally.samples.get("query_s", [])]
    cuts = statistics.quantiles(queries_ms, n=100) if queries_ms else [0.0] * 99
    metrics["store.query_ms.p50"] = cuts[49]
    metrics["store.query_ms.p95"] = cuts[94]
    metrics["trace.overhead_frac"] = traced_s / statistics.median(tally.times) - 1
    metrics["host.probe_s"] = statistics.median(tally.probes)
    tracer.save(WORK / "trace" / f"{workload.name}.npz")

    spans_recorded = len(tracer.span_name)
    print(f"traced body {traced_s:.3f}s, {spans_recorded} spans", file=sys.stderr)
    for layer, fields in layers.items():
        print(
            f"  {layer:18s} calls {fields['calls']:>9d}  busy {fields['busy_s']:8.3f}s"
            f"  self {fields['self_s']:8.3f}s",
            file=sys.stderr,
        )
    return metrics


def measure(args, workloads, spans, import_seconds):
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.sizes_for(args.profile)
    run_dir = WORK / f"run-{os.getpid()}"
    tally = Tally()
    try:
        setups = 1 if args.trace else SETUP_REPS
        inputs, raw_setup_s = set_up(
            workload, args, sizes, run_dir, import_seconds, setups, tally
        )
        repeat(workload, inputs, args.seconds, tally)
        raw_wall_s = tally.wall_s()
        reps = " ".join(f"{t:.3f}" for t in tally.times)
        print(
            f"{args.workload} seed {args.seed}: raw setup {raw_setup_s:.3f}s, "
            f"raw wall {raw_wall_s:.4f}s over {len(tally.times)} reps: {reps}; "
            f"probe median {statistics.median(tally.probes):.4f}s",
            file=sys.stderr,
        )
        if args.trace:
            registries = [("analysis", workloads.EXPERIMENTS)]
            values = traced_metrics(workload, inputs, tally, spans, registries)
            units = spans.PER_LAYER
        else:
            scale = tally.host_scale()
            values = {
                "setup_s": raw_setup_s * scale,
                "wall_s": raw_wall_s * scale,
                "peak_rss_mb": statistics.median(tally.peaks),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tally.failures:
        print(f"failed checks: {sorted(set(tally.failures))}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": u} for name, u in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    import_seconds = [time.perf_counter() - START]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = measure(args, workloads, spans, import_seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
