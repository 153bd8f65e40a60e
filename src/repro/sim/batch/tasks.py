"""Ready-made trial tasks for :func:`~repro.sim.batch.runner.run_trials`.

These are module-level functions (picklable by reference, as the pool
requires) that interpret a :class:`~repro.sim.batch.runner.TrialSpec`
the conventional way: ``family``/``n``/``seed`` name a
:data:`repro.graphs.generators.FAMILIES` graph with random UIDs, and
all algorithm randomness derives from ``spec.seed`` — so sweeps are
reproducible and independent of worker count. They double as templates
for writing new tasks.

No task takes an engine knob: every spec, with fault knobs or UIDs of
any width too, runs its primitive on
:class:`~repro.sim.batch.array.ArrayEngine`. An ``engine`` param is
refused, so no stored spec can claim an engine it did not run on.

Graph builds go through :func:`repro.graphs.trial_graph`, the one
process-local graph memo: for seed-invariant families (path, grid, ...)
and ID schemes (sequential, adversarial) it drops the seed from its key,
so a 100-seed sweep over a path builds it once per worker instead of
100 times. Outputs are byte-identical either way (that is what
"seed-invariant" means, and tests assert it).

The scenario layer (:mod:`repro.scenarios`) compiles its adversarial
knobs onto the same specs: ``ids`` picks the UID-assignment scheme
(:data:`repro.graphs.ids.SCHEMES`), ``fault_crash``/``fault_loss``/
``fault_churn``/``fault_seed``/``fault_start`` attach a
:class:`~repro.sim.batch.faults.RoundFaultPlan` to the engine, and
``bit_budget`` caps the randomness source. When any of those are in
play the task catches the model's own failure signals
(:class:`~repro.errors.ModelViolation`, :class:`~repro.errors.
BandwidthExceeded`, :class:`~repro.errors.RandomnessExhausted`) and
reports them as a failed trial instead of crashing the sweep — an
adversarial run *failing* is a data point, not an error. Specs without
those knobs let every error propagate.
"""

from __future__ import annotations

from typing import Optional

from ...errors import (
    BandwidthExceeded,
    ConfigurationError,
    ModelViolation,
    RandomnessExhausted,
)
from ...graphs import trial_graph
from ...randomness.independent import IndependentSource
from ..graph import DistributedGraph
from ..messages import CONGEST
from .runner import TrialResult, TrialSpec

#: Model-level failure signals an adversarial trial converts to data.
_TRIAL_FAILURES = (ModelViolation, BandwidthExceeded, RandomnessExhausted)


def _graph_of(spec: TrialSpec) -> DistributedGraph:
    """The spec's graph (ID scheme default "random"), memoized."""
    return trial_graph(spec.family, spec.n, spec.seed,
                       spec.param("ids", "random"))


def _faults_of(spec: TrialSpec):
    """The spec's RoundFaultPlan, or None when no fault knob is set.

    There is one engine, so an ``engine`` param is refused.
    """
    if "engine" in spec.kwargs:
        raise ConfigurationError(
            f"engine={spec.param('engine')!r} is not a trial param; the "
            "run picks the engine")
    crash = spec.param("fault_crash", 0.0)
    loss = spec.param("fault_loss", 0.0)
    churn = spec.param("fault_churn", 0.0)
    if not (crash or loss or churn):
        return None
    # Deferred: the fault module sits next to the coordinator transport
    # stack, which clean sweeps should never pay to import.
    from .faults import RoundFaultPlan

    return RoundFaultPlan(
        seed=spec.param("fault_seed", spec.seed),
        crash=crash, loss=loss, churn=churn,
        start_round=spec.param("fault_start", 1))


def _adversarial_run(spec: TrialSpec, faults, budget: Optional[int], run):
    """Run ``run()``; under adversarial knobs, failures become data."""
    if faults is None and budget is None:
        return run()
    try:
        return run()
    except _TRIAL_FAILURES as exc:
        return TrialResult(spec, False, {"failure": type(exc).__name__})


def _report_data(result) -> dict:
    report = result.report
    return {
        "rounds": report.rounds,
        "messages": report.messages,
        "total_bits": report.total_bits,
        "max_message_bits": report.max_message_bits,
        "randomness_bits": report.randomness_bits,
    }


def luby_mis_trial(spec: TrialSpec) -> TrialResult:
    """Luby's MIS in CONGEST; ``ok`` is MIS validity.

    Knobs: ``max_rounds``, ``ids``, ``bit_budget``, ``fault_*`` (see
    module docstring). Under crashes, dead nodes output ``None`` and
    ``ok`` reports whether the surviving flags still form a valid MIS —
    usually not, which is the point.
    """
    # Deferred: repro.core pulls in repro.checkers, which imports back
    # into repro.sim — a module-level import here would close the cycle.
    from ...core.mis import is_valid_mis, luby_mis

    model = spec.param("model", CONGEST)
    if model != CONGEST:
        # The task used to accept a model knob; reject loudly rather
        # than silently running CONGEST on a spec that asks otherwise.
        raise ConfigurationError(
            f"luby_mis_trial runs in CONGEST, got model={model!r}")
    g = _graph_of(spec)
    faults = _faults_of(spec)
    budget = spec.param("bit_budget")

    def run() -> TrialResult:
        result = luby_mis(g, IndependentSource(seed=spec.seed,
                                               bit_budget=budget),
                          max_rounds=spec.param("max_rounds", 100_000),
                          faults=faults)
        return TrialResult(spec, is_valid_mis(g, result.outputs),
                           _report_data(result))

    return _adversarial_run(spec, faults, budget, run)


def flood_min_trial(spec: TrialSpec) -> TrialResult:
    """Deterministic FloodMin; ``ok`` means every node found the global min
    (only guaranteed once ``radius`` reaches the graph diameter).

    Knobs: ``radius`` (default 8), ``model`` (default CONGEST), ``ids``,
    ``fault_*`` (see module docstring; omission loss makes the min
    propagate late or never).
    """
    from ..primitives import flood_min

    g = _graph_of(spec)
    faults = _faults_of(spec)

    def run() -> TrialResult:
        result = flood_min(g, spec.param("radius", 8),
                           model=spec.param("model", CONGEST),
                           faults=faults)
        global_min = min(g.uid(v) for v in g.nodes())
        ok = all(out == global_min for out in result.outputs.values())
        return TrialResult(spec, ok, _report_data(result))

    return _adversarial_run(spec, faults, None, run)


def bfs_forest_trial(spec: TrialSpec) -> TrialResult:
    """BFS forest grown from node 0; ``ok`` means every node was claimed
    (guaranteed on connected graphs once the depth bound covers them).

    Knobs: ``depth_bound`` (default n), ``ids``, ``fault_*`` (see module
    docstring; churn can sever the frontier mid-growth, leaving
    unclaimed nodes).
    """
    from ..primitives import build_bfs_forest

    g = _graph_of(spec)
    faults = _faults_of(spec)

    def run() -> TrialResult:
        result = build_bfs_forest(g, {0},
                                  depth_bound=spec.param("depth_bound"),
                                  faults=faults)
        ok = all(out is not None for out in result.outputs.values())
        return TrialResult(spec, ok, _report_data(result))

    return _adversarial_run(spec, faults, None, run)
