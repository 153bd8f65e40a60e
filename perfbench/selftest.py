"""Self-test of the benchmark, at toy sizes.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test
collection. It checks that BENCHMARK.json and the code agree on every
metric name and unit, that ``wall_s`` sums per-step medians and is
rescaled by the host probe, runs every workload untraced and twice
traced at the tiny profile (outputs correct, every metric reported,
exact counts identical across the two traced runs), pins seed 1's
tables to EXPERIMENTS.md, and checks that a directory holding only the
benchmark fails without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    command = [sys.executable, str(script), "--workload", workload]
    command += ["--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    command += ["--profile", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == spans.PER_LAYER
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = [name for name, _ in end_to_end + per_layer]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for _, unit in end_to_end + per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_profile(workload):
    untraced = result(bench(workload, 0))
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] > 0
    assert list(untraced["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, second = (result(bench(workload, 1)) for _ in range(2))
    for traced in (first, second):
        assert traced["correct"] and traced["failed"] == 0
        assert list(traced["metrics"]) == [name for name, _ in spans.PER_LAYER]
    for name in spans.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload in ("flood-bfs", "trial-store"):
        assert first["metrics"]["randomness.bits_metered"]["value"] == 0


def quick_tables_in_experiments_md():
    """The quick-profile tables of EXPERIMENTS.md, by experiment name."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    block = text.split("## Quick profile", 1)[1].split("```text\n", 1)[1]
    block = block.split("```", 1)[0]
    tables = {}
    for chunk in block.split("### done ")[1:]:
        header, _, body = chunk.partition("\n")
        lines = body.split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        tables[header.split()[0]] = "\n".join(lines)
    return tables


def test_seed1_reference_is_experiments_md():
    # EXPERIMENTS.md's quick profile is the CLI default, seed 1.
    tables = quick_tables_in_experiments_md()
    pinned = workloads.load_references()["paper-quick"]["1"]
    assert list(tables) == list(pinned)
    for name, text in tables.items():
        assert workloads.digest(text) == pinned[name], name


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = bench("luby-ring4", 0, cwd=tmp_path, script=tmp_path / "perfbench/run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_wall_is_sum_of_step_medians():
    outputs, seconds = workloads.run_steps(
        [("a", lambda done: 1), ("b", lambda done: done["a"] + 1)]
    )
    assert outputs == {"a": 1, "b": 2} and list(seconds) == ["a", "b"]
    tally = run.Tally()
    tally.steps = {"a": [1.0, 9.0, 2.0], "b": [5.0, 4.0, 30.0]}
    assert tally.wall_s() == 2.0 + 5.0
    tally.probes = [0.05, 0.9, 0.05]  # a host twice as fast as the reference
    assert tally.host_scale() == pytest.approx(run.PROBE_REFERENCE_S / 0.05)


def test_tracer_self_time_and_restore():
    import repro.randomness.block as block
    import repro.randomness.independent as independent

    original = block.derive_key
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner", "csr")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer", "core")
    tracer.install([])
    try:
        assert independent.derive_key is not original  # bound by name there
        tracer.run("synthetic", outer)
    finally:
        tracer.uninstall()
    assert block.derive_key is original and independent.derive_key is original
    layers = tracer.layer_times()
    assert layers["csr"]["calls"] == 2 and layers["core"]["calls"] == 1
    core, csr = layers["core"], layers["csr"]
    assert core["busy_s"] == pytest.approx(core["self_s"] + csr["busy_s"])
    assert csr["busy_s"] == pytest.approx(csr["self_s"])
    assert csr["busy_s"] >= 0.004
