"""The benchmark's four workloads: inputs, timed body and output checks.

Each workload is a closed loop with one client: ``setup`` builds the
inputs from the workload seed, ``steps`` lists the timed body as named
steps run in order (one per experiment table, per algorithm or per
store operation) and ``check`` decides, outside the timed region,
whether the program's outputs are correct. Each step is timed on its
own, so a run can report the sum of per-step medians: a slow sample
(host load, a garbage collection) then spoils one step, not a whole
repetition. The program under test only ever sees the generated inputs
(a seed, a CSR graph, store directories); the seed itself never
selects a code path.

Sizes come from a profile: ``full`` is what the benchmark measures,
``tiny`` runs every code path at toy sizes for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.analysis.experiments import EXPERIMENTS, run_experiment_grid
from repro.core.mis import luby_mis
from repro.randomness import IndependentSource
from repro.scenarios import ExperimentGrid
from repro.sim.batch import (
    ColumnarStore,
    CSRGraph,
    TrialResult,
    TrialSpec,
    compact,
    merge_stores,
    spec_key,
)
from repro.sim.batch.store import RESULT_FORMAT_VERSION, canonical_spec
from repro.sim.primitives import build_bfs_forest, flood_min

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# The BFS lattice and the store are smaller than their million-node and
# 10^5-record ancestors in BENCH_NATIVE/BENCH_STORE: every run sets up
# three times and then measures, and all runs of a check share one time
# budget, so the saved seconds buy a longer, steadier measured window.
PROFILES: Dict[str, Dict[str, Any]] = {
    "full": {
        "experiments": tuple(sorted(EXPERIMENTS)),
        "luby_n": 100_000,
        "flood_n": 1_000_000,
        "flood_radius": 32,
        "bfs_n": 100_000,
        "bfs_depth": 64,
        "store_records": 40_000,
        "store_ingest": 2_000,
        "store_queries": 240,
    },
    "tiny": {
        "experiments": ("e03", "e09", "e11"),
        "luby_n": 2_000,
        "flood_n": 5_000,
        "flood_radius": 8,
        "bfs_n": 3_000,
        "bfs_depth": 16,
        "store_records": 3_000,
        "store_ingest": 100,
        "store_queries": 40,
    },
}

Checks = List[Tuple[str, bool]]
Outputs = Dict[str, Any]
Steps = List[Tuple[str, Callable[[Outputs], Any]]]


def run_steps(steps: Steps) -> Tuple[Outputs, Dict[str, float]]:
    """Run ``steps`` in order; returns (outputs, seconds), by step name.

    Each step receives the outputs of the steps before it.
    """
    clock = time.perf_counter
    outputs: Outputs = {}
    seconds: Dict[str, float] = {}
    for name, step in steps:
        start = clock()
        outputs[name] = step(outputs)
        seconds[name] = clock() - start
    return outputs, seconds


def sizes_for(profile: str) -> Dict[str, Any]:
    sizes = dict(PROFILES[profile])
    sizes["profile"] = profile
    return sizes


def load_references() -> Dict[str, Any]:
    """Pinned outputs per workload and seed (full profile only)."""
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def derived_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one input of one workload, stable across runs."""
    data = f"perfbench:{label}:{seed}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=4).digest(), "big")


def ring_lattice_csr(n: int, reach: int, uid_seed: int) -> CSRGraph:
    """Circulant graph (i±1 .. i±reach mod n) with shuffled UIDs.

    ``reach=1`` is the cycle, ``reach=2`` the degree-4 ring lattice.
    Built as arrays directly, no networkx.
    """
    span = np.arange(1, reach + 1, dtype=np.int64)
    steps = np.concatenate([-span[::-1], span])
    indices = ((np.arange(n, dtype=np.int64)[:, None] + steps) % n).ravel()
    offsets = np.arange(n + 1, dtype=np.int64) * steps.size
    uids = np.random.default_rng(uid_seed).permutation(n) + 1
    return CSRGraph(offsets, indices, tuple(uids.tolist()))


class Workload:
    """One named workload; subclasses fill in the three phases."""

    name = ""

    def setup(self, seed: int, sizes: Dict[str, Any], workdir: Path) -> Dict:
        raise NotImplementedError

    def steps(self, inputs: Dict) -> Steps:
        """The timed body of one repetition, as named steps."""
        raise NotImplementedError

    def timed(self, inputs: Dict) -> Tuple[Outputs, Dict[str, float]]:
        """One repetition of the timed body: outputs and seconds by step."""
        return run_steps(self.steps(inputs))

    def body(self, inputs: Dict) -> Outputs:
        return self.timed(inputs)[0]

    def check(self, inputs: Dict, outputs: Outputs) -> Checks:
        raise NotImplementedError

    def release(self, inputs: Dict, outputs: Outputs) -> None:
        """Drop what one repetition left behind (files, big objects)."""

    def samples(self, outputs: Outputs) -> Dict[str, List[float]]:
        """Named sub-timings inside the steps of one repetition, in seconds."""
        return {}

    def bytes_written(self, outputs: Outputs) -> int:
        """Bytes the repetition left on disk through the program."""
        return 0

    def pinned(self, seed: int, sizes: Dict[str, Any]) -> Any:
        """The pinned reference for this seed, or None.

        References are pinned for the full profile only; other seeds
        and the tiny profile check that every repetition repeats the
        first one exactly.
        """
        if sizes["profile"] != "full":
            return None
        return load_references().get(self.name, {}).get(str(seed))


def repeat_or_pin(inputs: Dict, label: str, value: Any) -> Tuple[str, bool]:
    """Compare ``value`` to the pinned reference, else to repetition 1."""
    if inputs["reference"] is not None:
        return f"{label}-pinned", value == inputs["reference"]
    if inputs.get("first") is None:
        inputs["first"] = value
    return f"{label}-repeat", value == inputs["first"]


class PaperQuick(Workload):
    """E1-E11 at the quick profile, storeless, one worker."""

    name = "paper-quick"

    def setup(self, seed, sizes, workdir):
        return {
            "seed": seed,
            "names": sizes["experiments"],
            "reference": self.pinned(seed, sizes),
        }

    def steps(self, inputs):
        def table(name):
            grid = ExperimentGrid(names=(name,), profile="quick", seed=inputs["seed"])
            ((_, rendered),) = run_experiment_grid(grid, workers=1)
            return rendered.render()

        return [(name, lambda _, name=name: table(name)) for name in inputs["names"]]

    def check(self, inputs, outputs):
        got = {name: digest(text) for name, text in outputs.items()}
        return [
            ("tables-complete", list(got) == list(inputs["names"])),
            repeat_or_pin(inputs, "tables", got),
        ]


class LubyRing4(Workload):
    """Luby MIS on the degree-4 ring lattice, ArrayEngine."""

    name = "luby-ring4"

    def setup(self, seed, sizes, workdir):
        uid_seed = derived_seed(seed, "luby-uids")
        return {
            "seed": seed,
            "csr": ring_lattice_csr(sizes["luby_n"], 2, uid_seed),
            "reference": self.pinned(seed, sizes),
        }

    def steps(self, inputs):
        def luby(_):
            source = IndependentSource(seed=inputs["seed"])
            return luby_mis(None, source, engine="array", csr=inputs["csr"])

        return [("luby", luby)]

    def check(self, inputs, outputs):
        csr = inputs["csr"]
        result = outputs["luby"]
        values = [result.outputs.get(v) for v in range(csr.n)]
        in_mis = np.array([v is True for v in values])
        owners = np.repeat(np.arange(csr.n), np.diff(csr.offsets))
        both = in_mis[owners] & in_mis[csr.indices]
        covered = np.add.reduceat(in_mis[csr.indices], csr.offsets[:-1]) > 0
        report = result.report
        counts = [report.rounds, report.messages, report.randomness_bits]
        return [
            ("outputs-boolean", all(v is True or v is False for v in values)),
            ("independent", not both.any()),
            ("maximal", bool((in_mis | covered).all())),
            repeat_or_pin(inputs, "report", counts),
        ]


def window_min(values: np.ndarray, radius: int) -> np.ndarray:
    """Minimum over the cyclic window i-radius .. i+radius, per i."""
    padded = np.concatenate([values[-radius:], values, values[:radius]])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1)
    return windows.min(axis=1)


def bfs_claims_ok(outputs: Dict, lattice: CSRGraph, hops, depth: int) -> bool:
    """Every node within ``depth`` hops of node 0 is claimed by node 0's
    UID at its hop distance through a neighbor one hop closer; every
    node beyond is unclaimed."""
    n = lattice.n
    root_uid = lattice.uid(0)
    for v in range(n):
        claim = outputs.get(v)
        hop = int(hops[v])
        if hop > depth:
            if claim is not None:
                return False
            continue
        if claim is None or claim[0] != root_uid or claim[2] != hop:
            return False
        parent = claim[1]
        if hop == 0:
            if parent is not None:
                return False
            continue
        gap = abs(parent - v) % n
        if int(hops[parent]) != hop - 1 or min(gap, n - gap) > 2:
            return False
    return True


class FloodBFS(Workload):
    """FloodMin on the cycle plus a BFS forest on the ring lattice."""

    name = "flood-bfs"

    def setup(self, seed, sizes, workdir):
        cycle_seed = derived_seed(seed, "flood-uids")
        lattice_seed = derived_seed(seed, "bfs-uids")
        return {
            "radius": sizes["flood_radius"],
            "depth": sizes["bfs_depth"],
            "cycle": ring_lattice_csr(sizes["flood_n"], 1, cycle_seed),
            "lattice": ring_lattice_csr(sizes["bfs_n"], 2, lattice_seed),
            "expected": None,
        }

    def steps(self, inputs):
        def flood(_):
            radius, cycle = inputs["radius"], inputs["cycle"]
            return flood_min(None, radius, engine="array", csr=cycle)

        def bfs(_):
            return build_bfs_forest(
                None,
                {0},
                depth_bound=inputs["depth"],
                engine="array",
                csr=inputs["lattice"],
            )

        return [("flood", flood), ("bfs", bfs)]

    def check(self, inputs, outputs):
        flood, forest = outputs["flood"], outputs["bfs"]
        if inputs["expected"] is None:  # closed forms, once per run
            window = window_min(inputs["cycle"].uid_array, inputs["radius"])
            n = inputs["lattice"].n
            ring = np.minimum(np.arange(n), n - np.arange(n))
            inputs["expected"] = (window.tolist(), (ring + 1) // 2)
        window, hops = inputs["expected"]
        got = [flood.outputs.get(v) for v in range(inputs["cycle"].n)]
        claims = bfs_claims_ok(forest.outputs, inputs["lattice"], hops, inputs["depth"])
        return [
            ("flood-window-min", got == window),
            ("flood-rounds", flood.report.rounds == inputs["radius"]),
            ("bfs-closed-form", claims),
        ]


STORE_TASK = "perfbench.store.flood"
STORE_FAMILIES = ("cycle", "path", "grid")
STORE_SIZES = (64, 256, 1024, 4096)


def synthesize_records(count: int, seed: int) -> List[Dict[str, Any]]:
    """``count`` store records in the live sweep schema, keyed by seed.

    Keys are the real ``spec_key`` of each spec, so the store layer
    content-addresses them exactly as it would a sweep's trials.
    """
    base = seed * 1_000_000
    cells = len(STORE_FAMILIES) * len(STORE_SIZES)
    records = []
    for i in range(count):
        family = STORE_FAMILIES[i % len(STORE_FAMILIES)]
        size = STORE_SIZES[(i // len(STORE_FAMILIES)) % len(STORE_SIZES)]
        spec = TrialSpec(family, size, base + i // cells, (("radius", 32),))
        mix = i + seed * 7919
        records.append(
            {
                "version": RESULT_FORMAT_VERSION,
                "task": STORE_TASK,
                "key": spec_key(STORE_TASK, spec),
                "spec": canonical_spec(spec),
                "ok": True,
                "data": {
                    "rounds": (mix * 7919) % 64 + 1,
                    "messages": size * 2,
                    "total_bits": (mix * 104729) % 99991,
                    "max_message_bits": 35,
                    "elapsed": ((mix * 31) % 1000) / 1000.0,
                },
            }
        )
    return records


def write_jsonl_store(root: Path, records: List[Dict[str, Any]]) -> None:
    """Materialize records as the exact bytes a TrialStore would hold."""
    shards = root / "shards"
    shards.mkdir(parents=True)
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    (shards / f"{STORE_TASK}.jsonl").write_text("\n".join(lines) + "\n")
    index = {
        "format": RESULT_FORMAT_VERSION,
        "total": len(records),
        "tasks": {STORE_TASK: len(records)},
    }
    text = json.dumps(index, sort_keys=True, indent=2) + "\n"
    (root / "index.json").write_text(text)


def result_of(record: Dict[str, Any]) -> TrialResult:
    spec = record["spec"]
    params = tuple((key, value) for key, value in spec["params"])
    trial = TrialSpec(spec["family"], spec["n"], spec["seed"], params)
    return TrialResult(trial, record["ok"], dict(record["data"]))


def tree_files(root: Path) -> List[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def tree_digest(root: Path) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    h = hashlib.blake2b(digest_size=16)
    for path in tree_files(root):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TrialStoreWorkload(Workload):
    """Ingest, cold load, merge and single-cell selects on the store."""

    name = "trial-store"

    def setup(self, seed, sizes, workdir):
        records = synthesize_records(sizes["store_records"], seed)
        half = len(records) // 2
        workdir.mkdir(parents=True, exist_ok=True)
        for label, part in (("a", records[:half]), ("b", records[half:])):
            write_jsonl_store(workdir / f"jsonl-{label}", part)
            compact(workdir / f"jsonl-{label}", workdir / f"half-{label}").close()
            shutil.rmtree(workdir / f"jsonl-{label}")
        full = ColumnarStore(workdir / "full")
        merge_stores(full, [workdir / "half-a", workdir / "half-b"])
        full.close()

        rng = np.random.default_rng(derived_seed(seed, "store-queries"))
        picks = rng.choice(len(records), size=sizes["store_queries"], replace=False)
        queries = []
        for i in picks.tolist():
            spec = records[i]["spec"]
            cell = {"family": spec["family"], "n": spec["n"], "seed": spec["seed"]}
            queries.append(cell)
        # One brute-force filter pass over every record for all queried cells.
        expected: Dict[Tuple, List[TrialResult]] = {
            (q["family"], q["n"], q["seed"]): [] for q in queries
        }
        for record in records:
            spec = record["spec"]
            hits = expected.get((spec["family"], spec["n"], spec["seed"]))
            if hits is not None:
                hits.append(result_of(record))
        return {
            "workdir": workdir,
            "records": records,
            "ingest": [result_of(r) for r in records[: sizes["store_ingest"]]],
            "queries": queries,
            "expected": expected,
            "merged_digest": None,
            "rep": 0,
        }

    def steps(self, inputs):
        workdir = inputs["workdir"]
        inputs["rep"] += 1
        rep_dir = workdir / f"rep-{inputs['rep']}"

        def ingest(_):
            store = ColumnarStore(rep_dir / "ingest")
            for result in inputs["ingest"]:
                store.put(STORE_TASK, result.spec, result)
            store.flush()
            store.close()
            return rep_dir

        def load(_):
            return ColumnarStore(workdir / "full")

        def merge(_):
            dest = ColumnarStore(rep_dir / "merged")
            merge_stores(dest, [workdir / "half-a", workdir / "half-b"])
            dest.close()

        def select(done):
            full = done["load"]
            clock = time.perf_counter
            answers, latencies = [], []
            for query in inputs["queries"]:
                t = clock()
                answers.append(full.select(**query))
                latencies.append(clock() - t)
            full.close()
            return answers, latencies

        return [
            ("ingest", ingest),
            ("load", load),
            ("merge", merge),
            ("select", select),
        ]

    def samples(self, outputs):
        return {"query_s": outputs["select"][1]}

    def bytes_written(self, outputs):
        return sum(p.stat().st_size for p in tree_files(outputs["ingest"]))

    def check(self, inputs, outputs):
        records = inputs["records"]
        rep_dir = outputs["ingest"]
        ingested = ColumnarStore(rep_dir / "ingest")
        ingest_ok = list(ingested.records()) == records[: len(inputs["ingest"])]
        ingested.close()
        # The first merge is compared record by record; later ones must
        # reproduce its bytes exactly.
        merged_digest = tree_digest(rep_dir / "merged")
        if inputs["merged_digest"] is None:
            merged = ColumnarStore(rep_dir / "merged")
            merge_ok = list(merged.records()) == records
            merged.close()
            if merge_ok:
                inputs["merged_digest"] = merged_digest
        else:
            merge_ok = merged_digest == inputs["merged_digest"]
        checks = [("ingest-roundtrip", ingest_ok), ("merge-equals-source", merge_ok)]
        expected = inputs["expected"]
        for query, answer in zip(inputs["queries"], outputs["select"][0]):
            cell = (query["family"], query["n"], query["seed"])
            checks.append(("select-equals-filter", answer == expected[cell]))
        return checks

    def release(self, inputs, outputs):
        shutil.rmtree(outputs["ingest"], ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperQuick(), LubyRing4(), FloodBFS(), TrialStoreWorkload())
}
