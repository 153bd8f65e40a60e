"""Span tracer for the benchmark's traced repetition.

The tracer wraps the program's public functions from outside, for one
traced repetition only, and changes nothing in the program. Every
wrapped call records a span (function name, start, end, parent span)
in compact in-memory arrays; the spans are written out when the run
ends. A layer's self time is the time its spans cover minus the time
their child spans cover; its busy time is the time at least one of its
spans is open. Counts the issue table asks for (bits metered and
generated, engine rounds and messages, trials, fsyncs) are recorded at
the same boundaries.

Functions are wrapped at every binding site: a function imported by
name into another module (``derive_key`` into
``repro.randomness.independent``, the ``core`` entry points into
``repro.analysis.experiments``) is replaced there too, and methods are
wrapped on every subclass that overrides them. A target that no longer
exists is reported and skipped; a layer that then records no calls on
the workload it is meant to carry fails the run loudly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Layers in report order; "bench" is the traced repetition's root span.
LAYERS: Tuple[str, ...] = (
    "bench",
    "graphs",
    "csr",
    "randomness.source",
    "randomness.prf",
    "randomness.ledger",
    "randomness.gf2m",
    "randomness.shared",
    "engine",
    "core",
    "checkers",
    "runner",
    "store",
    "analysis",
)

#: The workloads on which each layer must record calls.
HEAVY: Dict[str, Tuple[str, ...]] = {
    "graphs": ("paper-quick",),
    "csr": ("paper-quick",),
    "randomness.source": ("paper-quick", "luby-ring4"),
    "randomness.prf": ("luby-ring4",),
    "randomness.ledger": ("luby-ring4",),
    "randomness.gf2m": ("paper-quick",),
    "randomness.shared": ("paper-quick",),
    "engine": ("flood-bfs", "luby-ring4"),
    "core": ("paper-quick", "luby-ring4"),
    "checkers": ("paper-quick",),
    "runner": ("paper-quick",),
    "store": ("trial-store",),
    "analysis": ("paper-quick",),
}

#: Module-level functions of every module's ``__all__`` (PUBLIC) or
#: explicit names; ``Class.method`` also wraps overriding subclasses.
PUBLIC = None
SAMPLERS = [
    f"RandomSource.{name}"
    for name in (
        "bit",
        "bits",
        "bits_block",
        "uniform_int",
        "uniform_ints",
        "uniform_int_each",
        "bernoulli",
        "geometric",
        "geometrics",
    )
]
GF2M_OPS = [
    f"GF2m.{name}"
    for name in (
        "__init__",
        "element",
        "add",
        "mul",
        "pow",
        "inv",
        "eval_poly",
        "mul_vec",
        "eval_poly_vec",
        "pow_range_vec",
    )
]
STORE_METHODS = ("__init__", "get", "put", "records", "tasks", "close")

# Order matters: a function claimed by an earlier entry (the checkers
# re-exported from repro.core) keeps that layer.
TARGETS: List[Tuple[str, str, Optional[Sequence[str]]]] = [
    ("graphs", "repro.graphs", PUBLIC),
    (
        "csr",
        "repro.sim.batch.csr",
        [
            "bfs_distances",
            "adjacency_to_csr",
            "distances_to_ball",
            "nx_to_csr",
            "ensure_csr",
            "CSRGraph.from_graph",
            "CSRGraph.bfs_distances",
            "CSRGraph.ball",
        ],
    ),
    (
        "csr",
        "repro.sim.graph",
        [
            "DistributedGraph.bfs_distances",
            "DistributedGraph.ball",
            "DistributedGraph.weak_diameter",
            "DistributedGraph.distance",
        ],
    ),
    ("randomness.source", "repro.randomness.source", SAMPLERS),
    (
        "randomness.prf",
        "repro.randomness.block",
        ["derive_key", "BlockStream.block", "BlockStream.read"],
    ),
    (
        "randomness.ledger",
        "repro.randomness.block",
        ["IntervalSet.add", "IntervalSet.missing", "IntervalSet.covers"],
    ),
    ("randomness.gf2m", "repro.randomness.finite_field", GF2M_OPS),
    (
        "randomness.gf2m",
        "repro.randomness.kwise",
        [
            "KWiseSource.__init__",
            "KWiseSource._raw_bit",
            "KWiseSource._raw_block",
            "KWiseSource.enumerate_seeds",
        ],
    ),
    (
        "randomness.gf2m",
        "repro.randomness.epsilon_biased",
        [
            "EpsilonBiasedSource.__init__",
            "EpsilonBiasedSource._raw_bit",
            "EpsilonBiasedSource._raw_block",
            "EpsilonBiasedSource.enumerate_seeds",
        ],
    ),
    (
        "randomness.shared",
        "repro.randomness.shared",
        [
            "SharedRandomness.global_bit",
            "SharedRandomness.global_bits",
            "SharedRandomness.as_int",
            "SharedRandomness.expand_kwise",
            "SharedRandomness.enumerate_all",
        ],
    ),
    ("engine", "repro.sim.engine", ["SyncEngine.run"]),
    ("engine", "repro.sim.batch.fast_engine", ["FastEngine.run"]),
    ("engine", "repro.sim.batch.array", ["ArrayEngine.run"]),
    ("checkers", "repro.checkers.base", ["LocalChecker.check"]),
    (
        "checkers",
        "repro.structures",
        [
            "Decomposition.is_valid",
            "Decomposition.violations",
            "SplittingInstance.is_satisfied",
            "SplittingInstance.violated_nodes",
        ],
    ),
    ("checkers", "repro.core.mis", ["is_valid_mis"]),
    ("checkers", "repro.core.coloring", ["is_proper_coloring"]),
    ("checkers", "repro.core.sinkless", ["is_sinkless"]),
    ("core", "repro.core", PUBLIC),
    ("core", "repro.core.decomposition", PUBLIC),
    ("runner", "repro.sim.batch.runner", ["run_trials"]),
    (
        "store",
        "repro.sim.batch.store",
        [f"TrialStore.{m}" for m in STORE_METHODS] + ["merge_stores"],
    ),
    (
        "store",
        "repro.sim.batch.colstore",
        [f"ColumnarStore.{m}" for m in STORE_METHODS]
        + ["ColumnarStore.flush", "ColumnarStore.select", "ColumnarStore.aggregate"]
        + ["compact", "open_store"],
    ),
]

#: Modules whose by-name imports get wrapped: the program's and the
#: benchmark's own workload module.
BINDING_PREFIXES = ("repro", "workloads")

BLOCK_BITS = 512
EXPERIMENT_NAMES = tuple(f"e{i:02d}" for i in range(1, 12))

#: (name, unit) of every metric the traced run reports, in order.
PER_LAYER: List[Tuple[str, str]] = (
    [
        (f"{layer}.{field}", unit)
        for layer in LAYERS
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ]
    + [
        ("randomness.bit_calls", "count"),
        ("randomness.bits_metered", "bits"),
        ("randomness.bits_generated", "bits"),
        ("randomness.yield", "ratio"),
        ("randomness.gf2m.builds", "count"),
        ("engine.rounds", "count"),
        ("engine.messages", "count"),
        ("engine.total_bits", "bits"),
        ("runner.trials", "count"),
        ("store.fsync_calls", "count"),
        ("store.fsync_s", "s"),
        ("store.bytes_written", "bytes"),
        ("store.ingest_s", "s"),
        ("store.load_s", "s"),
        ("store.merge_s", "s"),
        ("store.query_ms.p50", "ms"),
        ("store.query_ms.p95", "ms"),
    ]
    + [(f"analysis.{name}_s", "s") for name in EXPERIMENT_NAMES]
    + [("trace.spans", "count"), ("trace.overhead_frac", "ratio")]
    + [("host.probe_s", "s")]  # the host's speed during the run (run.py)
)

#: Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "randomness.bits_metered",
    "randomness.bits_generated",
    "randomness.gf2m.builds",
    "randomness.bit_calls",
    "engine.rounds",
    "engine.messages",
    "engine.total_bits",
    "runner.trials",
)


class LayerMissing(RuntimeError):
    """A layer recorded no calls on a workload it must carry."""


class Tracer:
    """Records spans and counts for calls into the wrapped functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_labels: List[str] = []
        self.run_first: List[int] = []
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "randomness.bits_metered",
                "randomness.bits_generated",
                "engine.rounds",
                "engine.messages",
                "engine.total_bits",
                "runner.trials",
            ),
            0,
        )
        self.skipped: List[str] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        name_id = self._name_id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def run(self, label: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Call ``fn`` under a root span; returns (result, seconds)."""
        self.run_labels.append(label)
        self.run_first.append(len(self.span_name))
        root = self.wrap(fn, "bench.body", "bench")
        start = time.perf_counter()
        result = root()
        return result, time.perf_counter() - start

    # ------------------------------------------------------------------
    # counting hooks (inside the span, so their cost is attributed)
    # ------------------------------------------------------------------
    def _counting(self, qualname: str, fn: Callable) -> Callable:
        counters = self.counters
        if qualname == "IntervalSet.add":

            def add(ledger, start, end):
                added = fn(ledger, start, end)
                counters["randomness.bits_metered"] += added
                return added

            return add
        if qualname == "BlockStream.block":

            def block(stream, i):
                fresh = i not in getattr(stream, "_blocks", ())
                bits = fn(stream, i)
                if fresh:
                    counters["randomness.bits_generated"] += BLOCK_BITS
                return bits

            return block
        if qualname.endswith("Engine.run"):

            def run(engine, *args, **kwargs):
                result = fn(engine, *args, **kwargs)
                report = result.report
                counters["engine.rounds"] += report.rounds
                counters["engine.messages"] += report.messages
                counters["engine.total_bits"] += report.total_bits
                return result

            return run
        if qualname == "run_trials":

            def run_trials(task, specs, *args, **kwargs):
                counters["runner.trials"] += len(specs)
                return fn(task, specs, *args, **kwargs)

            return run_trials
        return fn

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # The raw namespace entry, so descriptors restore as they were.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, method: str, layer: str) -> None:
        raw = cls.__dict__[method]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        qualname = f"{cls.__name__}.{method}"
        wrapped = self.wrap(self._counting(qualname, fn), qualname, layer)
        self._patch(cls, method, kind(wrapped) if kind else wrapped)

    def _family(self, cls: type) -> List[type]:
        """``cls`` and every subclass, each once."""
        found = [cls]
        for klass in found:
            found.extend(s for s in klass.__subclasses__() if s not in found)
        return found

    def install(self, registries: Sequence[Tuple[str, Dict[str, Callable]]]) -> None:
        """Wrap every target, its binding sites and the registries.

        ``registries`` are ``(layer, dict)`` pairs whose values are
        replaced by wrapped callables named ``<layer>.<key>``.
        """
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, module_name, names in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(module_name)
                continue
            if names is None:
                names = [
                    n
                    for n in getattr(module, "__all__", ())
                    if inspect.isfunction(getattr(module, n, None))
                ]
            for name in names:
                owner_name, _, method = name.rpartition(".")
                if owner_name:
                    cls = getattr(module, owner_name, None)
                    if cls is None or method not in cls.__dict__:
                        self.skipped.append(f"{module_name}.{name}")
                        continue
                    for sub in self._family(cls):
                        if method in sub.__dict__:
                            self._wrap_method(sub, method, layer)
                    continue
                fn = getattr(module, name, None)
                if fn is None:
                    self.skipped.append(f"{module_name}.{name}")
                    continue
                if id(fn) not in functions:
                    counted = self._counting(name, fn)
                    label = f"{fn.__module__}.{fn.__qualname__}"
                    functions[id(fn)] = (fn, self.wrap(counted, label, layer))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(BINDING_PREFIXES):
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        self._patch(os, "fsync", self.wrap(os.fsync, "os.fsync", "store"))
        for layer, registry in registries:
            for key, fn in list(registry.items()):
                self._patches.append((registry, key, fn))
                registry[key] = self.wrap(fn, f"{layer}.{key}", layer)
        if self.skipped:
            print(f"trace: skipped missing targets {self.skipped}", file=sys.stderr)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span plus the name and run tables to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_layer=np.array([LAYERS[i] for i in self.name_layer]),
            run_labels=np.array(self.run_labels),
            run_first=np.array(self.run_first, dtype=np.int64),
            **self.arrays(),
        )

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy seconds and self seconds."""
        spans = self.arrays()
        parent = spans["parent"].astype(np.int64)
        duration = spans["end"] - spans["start"]
        layer = np.asarray(self.name_layer, dtype=np.int64)[spans["name"]]
        count = duration.size
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=count
        )
        self_time = duration - children
        # Bitmask of the layers open above each span, by fixed point over
        # the parent links (each pass settles one more level of depth).
        bit = np.left_shift(np.int64(1), layer)
        above = np.zeros(count, dtype=np.int64)
        safe_parent = np.where(has_parent, parent, 0)
        while True:
            step = np.where(has_parent, above[safe_parent] | bit[safe_parent], 0)
            if np.array_equal(step, above):
                break
            above = step
        outermost = (above & bit) == 0
        size = len(LAYERS)
        calls = np.bincount(layer, minlength=size)
        busy = np.bincount(
            layer[outermost], weights=duration[outermost], minlength=size
        )
        own = np.bincount(layer, weights=self_time, minlength=size)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(LAYERS)
        }

    def function_totals(self, name: str) -> Tuple[int, float]:
        """(calls, total seconds) of the spans recorded under ``name``."""
        if name not in self._name_ids:
            return 0, 0.0
        spans = self.arrays()
        mask = spans["name"] == self._name_ids[name]
        return int(mask.sum()), float((spans["end"] - spans["start"])[mask].sum())

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric this tracer measures itself."""
        out: Dict[str, float] = {}
        for layer, fields in self.layer_times().items():
            for field, value in fields.items():
                out[f"{layer}.{field}"] = value
        out.update(self.counters)
        generated = self.counters["randomness.bits_generated"]
        metered = self.counters["randomness.bits_metered"]
        out["randomness.yield"] = metered / generated if generated else 0.0
        out["randomness.bit_calls"] = self.function_totals("RandomSource.bit")[0]
        out["randomness.gf2m.builds"] = self.function_totals("GF2m.__init__")[0]
        fsyncs, fsync_s = self.function_totals("os.fsync")
        out["store.fsync_calls"] = fsyncs
        out["store.fsync_s"] = fsync_s
        for name in EXPERIMENT_NAMES:
            out[f"analysis.{name}_s"] = self.function_totals(f"analysis.{name}")[1]
        out["trace.spans"] = len(self.span_name)
        return out

    def require_layers(self, workload: str, layers: Dict[str, Dict]) -> None:
        """Fail loudly if a layer is silent on a workload it must carry."""
        silent = [
            layer
            for layer, heavy in HEAVY.items()
            if workload in heavy and layers[layer]["calls"] == 0
        ]
        if silent:
            raise LayerMissing(
                f"layers {silent} recorded zero calls on {workload!r}; the "
                f"tracer no longer reaches them (skipped targets: {self.skipped})"
            )
