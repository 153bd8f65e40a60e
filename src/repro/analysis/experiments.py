"""Experiment drivers E1–E11: one per theorem, one table each.

The paper proves theorems rather than reporting measurements, so the
"tables and figures" this module regenerates are defined here, one
function per theorem, and recorded in EXPERIMENTS.md: each measures the
quantities a theorem bounds and prints them against the bound. Each
takes a ``quick`` flag — benchmarks run the quick profile; the
EXPERIMENTS.md numbers come from the default profile.

Per-seed trial loops are fanned through
:func:`repro.sim.batch.run_trials`: each sweep's inner body is a
module-level ``_eXX_trial`` function mapped over a
:class:`~repro.sim.batch.TrialSpec` grid. E2's and E8's tasks carry a
batch form (``_eXX_trials``), so each of their sweeps runs its
Elkin–Neiman trials as one carving of the trials' disjoint union.
Every driver accepts a ``workers`` argument (``None`` ->
``$REPRO_WORKERS`` -> 1); the seed-sweeping drivers (e01–e06, e08,
e10) fan across processes without changing their numbers — trial
randomness is a pure function of the spec, so worker count never
affects results — while e07/e09/e11 have no per-seed sweep and accept
``workers`` only for interface uniformity (they run serially
regardless).

Every driver also accepts ``store`` (a
:class:`~repro.sim.batch.ColumnarStore`, or anything speaking its
``get``/``put`` cache protocol) and ``shard`` (``(index,
count)``), threaded through to every ``run_trials`` call: with a store
the sweeps are checkpointed per trial, so a killed full-profile
regeneration resumes per-table from partial results; with a shard each
host computes only its deterministic slice of every sweep (tables are
then partial — merge the stores and rerun with ``store`` alone to
render complete ones). Table assembly tolerates the placeholder
results a sharded run leaves for other hosts' trials.

Since the scenario layer landed, no driver builds its grid by hand:
each sweeping driver has a ``_eXX_plan(quick, seed)`` producing
:class:`~repro.scenarios.ScenarioSpec` sub-scenarios (one per table
row group, preserving the historical per-call ``run_trials``
granularity) whose ``compile()`` emits byte-identical
:class:`~repro.sim.batch.TrialSpec` grids — same specs, same store
keys, same tables. :func:`scenario_plan` exposes the plans;
:func:`run_experiment_grid` executes an
:class:`~repro.scenarios.ExperimentGrid` and is the one dispatch every
table run goes through: ``python -m repro.analysis``, its
``--scenario`` experiments kind, and :func:`run_all`.

Every trial takes its graph from :func:`repro.graphs.trial_graph`, so a
witness graph that several scenarios share — E2's cycles across the
reference and every k, E8's G(n, p) graphs across every claimed N — is
built once per process.
"""

from __future__ import annotations

import functools
import math
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from ..core import (
    exhaustive_derandomize,
    is_sinkless,
    is_valid_mis,
    is_proper_coloring,
    luby_mis,
    mis_via_decomposition,
    coloring_via_decomposition,
    random_instance,
    randomized_orientation,
    seeds_to_failure_curve,
    split,
    splits_under_codes,
    trial_coloring,
)
from ..core.decomposition import (
    deterministic_decomposition,
    elkin_neiman_batch,
    kwise_source,
    shared_randomness_decomposition,
    shattering_decomposition,
    sparse_bits_decomposition,
    sparse_bits_strong_decomposition,
)
from ..errors import (
    ConfigurationError,
    DerandomizationFailure,
    InvalidSolution,
)
from ..graphs import trial_graph
from ..randomness import IndependentSource, RandomSource, SparseRandomness
from ..scenarios import (
    ExperimentGrid,
    ScenarioSpec,
    register_task,
    sweep_scenario,
)
from ..sim.batch import TrialResult, TrialSpec, batched
from ..sim.graph import DistributedGraph
from ..sim.messages import ceil_log2
from ..sim.metrics import RunReport
from .ablations import ABLATIONS
from .stats import log2_or_floor, success_rate, wilson_interval
from .tables import Table

if TYPE_CHECKING:
    from ..sim.batch.colstore import ColumnarStore

#: run_trials sharding: (shard index, shard count) or None.
Shard = Optional[Tuple[int, int]]

#: The trial store a driver checkpoints into, if any.
Store = Optional["ColumnarStore"]

#: run_trials per-trial completion hook (fresh computations only), or
#: None. Coordinated workers pass a lease-renewal callback here
#: (:mod:`repro.sim.batch.distrib`); it never changes any number.
Progress = Optional[Callable[[TrialSpec, TrialResult], None]]


def _last_metric(results: List[TrialResult], name: str,
                 default: object = "-") -> object:
    """The metric of the last trial that actually recorded it.

    Equivalent to ``results[-1].data[name]`` on a complete sweep;
    sharded runs leave placeholder results (empty ``data``) for trials
    owned by other hosts, which must be skipped.
    """
    for result in reversed(results):
        if name in result.data:
            return result.data[name]
    return default


# ----------------------------------------------------------------------
# E1 — Theorem 3.1: one private bit per h hops (weak-diameter pipeline)
# ----------------------------------------------------------------------
def _e01_trial(spec: TrialSpec) -> TrialResult:
    base, h, t = spec.param("base"), spec.param("h"), spec.seed
    g = trial_graph("grid", spec.n, base + t)
    source = SparseRandomness.for_graph(g, h=h, seed=base + 17 * t)
    assert source.verify_covering(g)
    dec, report, _extra = sparse_bits_decomposition(
        g, source, spacing=4 * h + 4, strict=False)
    ok = dec is not None and dec.is_valid(g)
    data: Dict[str, object] = {}
    if ok:
        data = {"colors": dec.num_colors(),
                "diam": dec.max_weak_diameter(g),
                "rounds": report.rounds}
    return TrialResult(spec, ok, data)


def _e01_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    n = 144 if quick else 400
    trials = 2 if quick else 5
    return [sweep_scenario(
        f"e01-h{h}", "e01", "grid", (n,),
        description="Theorem 3.1 decomposition quality at holder radius h",
        seed_count=trials, base=seed, h=h) for h in (1, 2, 4)]


def e01_sparse_bits(quick: bool = False, seed: int = 0,
                    workers: Optional[int] = None,
                    store: Store = None,
                    shard: Shard = None,
                    progress: Progress = None) -> Table:
    """Sweep the holder radius h; measure decomposition quality.

    Theorem 3.1 bound: O(log n) colors, h·poly(log n) diameter. The
    table shows colors staying logarithmic while the diameter scales
    with h — the h-dependence Theorem 3.7 then removes (E5).
    """
    rows: List[Dict[str, object]] = []
    for scenario in _e01_plan(quick, seed):
        h = scenario.algorithm.param("h")
        n = scenario.graph.sizes[0]
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        outcomes = [r.ok for r in results]
        colors = [r.data["colors"] for r in results if r.ok]
        diams = [r.data["diam"] for r in results if r.ok]
        rounds = [r.data["rounds"] for r in results if r.ok]
        rows.append({
            "h": h,
            "n": n,
            "success": success_rate(outcomes),
            "colors(max)": max(colors) if colors else "-",
            "colors bound O(log n)": 2 * ceil_log2(n),
            "weak diam(max)": max(diams) if diams else "-",
            "rounds": max(rounds) if rounds else "-",
        })
    return Table(
        title="E1 (Theorem 3.1): decomposition from one bit per h hops",
        rows=rows,
        notes=["bound: O(log n) colors, h*poly(log n) weak diameter, "
               "congestion 1; diameter should grow with h"],
    )


# ----------------------------------------------------------------------
# E2 — Theorem 3.5: k-wise independence suffices
# ----------------------------------------------------------------------
def _en_trials(specs: List[TrialSpec],
               run_of: Callable[[TrialSpec], Tuple[DistributedGraph,
                                                   RandomSource]]
               ) -> List[Tuple[RandomSource, bool, RunReport]]:
    """Strict Elkin–Neiman on each spec's ``run_of(spec) -> (graph,
    source)``: ``(source, success, report)`` per spec, in order.

    The specs sharing ``phases`` and ``cap`` (a whole scenario sweep)
    run as one :func:`elkin_neiman_batch`, one carving of their graphs'
    disjoint union; each result is its run's own.
    """
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.param("phases"), spec.param("cap")),
                          []).append(i)
    runs = [run_of(spec) for spec in specs]
    out: List[Tuple[RandomSource, bool, RunReport]] = [None] * len(specs)
    for (phases, cap), members in groups.items():
        batch = elkin_neiman_batch([runs[i] for i in members], phases=phases,
                                   cap=cap, finish="strict")
        for i, (dec, report, _extra) in zip(members, batch):
            out[i] = (runs[i][1], dec is not None, report)
    return out


def _e02_ref_run(spec: TrialSpec) -> Tuple[DistributedGraph, RandomSource]:
    base, t = spec.param("base"), spec.seed
    return (trial_graph("cycle", spec.n, id_seed=base + t),
            IndependentSource(seed=base + 1000 + t))


def _e02_kwise_run(spec: TrialSpec) -> Tuple[DistributedGraph, RandomSource]:
    base, t = spec.param("base"), spec.seed
    return (trial_graph("cycle", spec.n, id_seed=base + t),
            kwise_source(spec.n, spec.param("k"), spec.param("phases"),
                         spec.param("cap"), base + 2000 + 31 * t))


def _e02_ref_trials(specs: List[TrialSpec]) -> List[TrialResult]:
    return [TrialResult(spec, ok)
            for spec, (_source, ok, _report)
            in zip(specs, _en_trials(specs, _e02_ref_run))]


def _e02_kwise_trials(specs: List[TrialSpec]) -> List[TrialResult]:
    return [TrialResult(spec, ok, {"seed_bits": source.seed_bits})
            for spec, (source, ok, _report)
            in zip(specs, _en_trials(specs, _e02_kwise_run))]


@batched(_e02_ref_trials)
def _e02_ref_trial(spec: TrialSpec) -> TrialResult:
    return _e02_ref_trials([spec])[0]


@batched(_e02_kwise_trials)
def _e02_kwise_trial(spec: TrialSpec) -> TrialResult:
    return _e02_kwise_trials([spec])[0]


def _e02_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    """The fully independent reference first, then one scenario per k."""
    n = 48 if quick else 96
    trials = 10 if quick else 30
    phases = 4 * ceil_log2(n)
    cap = 2 * ceil_log2(n)
    plan = [sweep_scenario(
        "e02-ref", "e02-ref", "cycle", (n,),
        description="EN with fully independent radii (reference)",
        seed_count=trials, base=seed, phases=phases, cap=cap)]
    plan.extend(sweep_scenario(
        f"e02-k{k}", "e02-kwise", "cycle", (n,),
        description="EN under k-wise independent radii",
        seed_count=trials, base=seed, k=k, phases=phases, cap=cap)
        for k in (1, 2, 4, 8, 16, 32))
    return plan


def e02_kwise(quick: bool = False, seed: int = 0,
              workers: Optional[int] = None,
              store: Store = None,
              shard: Shard = None,
              progress: Progress = None) -> Table:
    """Success of the EN construction as the independence k sweeps up.

    k = 1 is full correlation (all nodes share one radius — ties
    everywhere, guaranteed failure); the theorem's Θ(log² n) regime
    matches fully independent behaviour.
    """
    ref_scenario, *k_scenarios = _e02_plan(quick, seed)
    n = ref_scenario.graph.sizes[0]
    trials = ref_scenario.seeds.count
    rows: List[Dict[str, object]] = []
    # Fully independent reference.
    ref_results = ref_scenario.run(workers=workers, store=store,
                                   shard=shard, progress=progress)
    ref = [r.ok for r in ref_results]
    for scenario in k_scenarios:
        k = scenario.algorithm.param("k")
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        outcomes = [r.ok for r in results]
        lo, hi = wilson_interval(sum(outcomes), trials)
        rows.append({
            "k": k,
            "success": success_rate(outcomes),
            "CI95": f"[{lo:.2f},{hi:.2f}]",
            "seed bits (k*m)": _last_metric(results, "seed_bits"),
            "independent ref": success_rate(ref),
        })
    return Table(
        title="E2 (Theorem 3.5): EN decomposition under k-wise independence",
        rows=rows,
        notes=[f"n={n}, trials={trials}; theorem: k = Theta(log^2 n) "
               f"(= {ceil_log2(n) ** 2}) suffices; k=1 must fail (all radii equal)"],
    )


# ----------------------------------------------------------------------
# E3 — Lemma 3.4: splitting in zero rounds
# ----------------------------------------------------------------------
#: The four E3 regimes split the same instance per trial seed, so each
#: process builds it once (splitting only reads it); the bound covers
#: the largest sweep's seeds.
_e03_instance = functools.lru_cache(maxsize=100)(random_instance)


def _e03_trial(spec: TrialSpec) -> TrialResult:
    base, t = spec.param("base"), spec.seed
    inst = _e03_instance(spec.param("num_u"), spec.n,
                         spec.param("degree"), base + t)
    _col, ok, _rep, source = split(inst, spec.family, seed=base + 7 * t)
    return TrialResult(spec, ok, {"seed_bits": source.seed_bits})


def _e03_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    """One scenario per randomness regime; ``family`` carries the
    regime name (the task is registered ``free_family``)."""
    num_v = 128 if quick else 512
    num_u = 64 if quick else 256
    degree = max(8, 2 * ceil_log2(num_v) ** 2 // 2)
    trials = 20 if quick else 100
    return [sweep_scenario(
        f"e03-{regime}", "e03", regime, (num_v,),
        description="zero-round splitting under a randomness regime",
        seed_count=trials, base=seed, num_u=num_u, degree=degree)
        for regime in ("independent", "kwise", "shared-kwise",
                       "epsilon-biased")]


def e03_splitting(quick: bool = False, seed: int = 0,
                  workers: Optional[int] = None,
                  store: Store = None,
                  shard: Shard = None,
                  progress: Progress = None) -> Table:
    """Zero-round splitting under the four randomness regimes."""
    plan = _e03_plan(quick, seed)
    num_v = plan[0].graph.sizes[0]
    num_u = plan[0].algorithm.param("num_u")
    degree = plan[0].algorithm.param("degree")
    trials = plan[0].seeds.count
    rows: List[Dict[str, object]] = []
    for scenario in plan:
        regime = scenario.graph.family
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        outcomes = [r.ok for r in results]
        seed_bits = _last_metric(results, "seed_bits")
        lo, hi = wilson_interval(sum(outcomes), trials)
        rows.append({
            "regime": regime,
            "success": success_rate(outcomes),
            "CI95": f"[{lo:.2f},{hi:.2f}]",
            "seed bits": seed_bits if seed_bits is not None else "unbounded",
            "rounds": 0,
        })
    return Table(
        title="E3 (Lemma 3.4): splitting, zero rounds, shared randomness",
        rows=rows,
        notes=[f"|U|={num_u}, |V|={num_v}, degree={degree}, trials={trials}; "
               f"lemma: O(log n) shared bits suffice (epsilon-biased row)"],
    )


# ----------------------------------------------------------------------
# E4 — Theorem 3.6: shared randomness in CONGEST
# ----------------------------------------------------------------------
def _e04_trial(spec: TrialSpec) -> TrialResult:
    base, t = spec.param("base"), spec.seed
    g = trial_graph("gnp-sparse", spec.n, base + t)
    dec, _report, extra = shared_randomness_decomposition(
        g, seed=base + 11 * t, strict=False)
    valid = dec is not None and dec.is_valid(g)
    data: Dict[str, object] = {}
    if dec is not None:
        data = {"colors": dec.num_colors(),
                "diam": dec.max_strong_diameter(g),
                "congestion": dec.congestion(),
                "bits": extra["shared_bits_consumed"]}
    return TrialResult(spec, valid and not extra["unclustered"], data)


def _e04_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    sizes = (48, 96) if quick else (64, 128, 256)
    trials = 2 if quick else 5
    return [sweep_scenario(
        f"e04-n{n}", "e04", "gnp-sparse", (n,),
        description="Theorem 3.6 shared-randomness decomposition quality",
        seed_count=trials, base=seed) for n in sizes]


def e04_shared_congest(quick: bool = False, seed: int = 0,
                       workers: Optional[int] = None,
                       store: Store = None,
                       shard: Shard = None,
                       progress: Progress = None) -> Table:
    """Decomposition quality and seed budget of the Theorem 3.6 run."""
    rows: List[Dict[str, object]] = []
    for scenario in _e04_plan(quick, seed):
        n = scenario.graph.sizes[0]
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        ok = [r.ok for r in results]
        colors = [r.data["colors"] for r in results if r.data]
        diams = [r.data["diam"] for r in results if r.data]
        congs = [r.data["congestion"] for r in results if r.data]
        bits = [r.data["bits"] for r in results if r.data]
        rows.append({
            "n": n,
            "success": success_rate(ok),
            "colors(max)": max(colors) if colors else "-",
            "O(log n)": 2 * ceil_log2(n),
            "strong diam(max)": max(diams) if diams else "-",
            "O(log^2 n)": 2 * ceil_log2(n) ** 2,
            "congestion": max(congs) if congs else "-",
            "shared bits used": max(bits) if bits else "-",
        })
    return Table(
        title="E4 (Theorem 3.6): (O(log n), O(log^2 n)) decomposition "
              "from poly(log n) shared bits, CONGEST",
        rows=rows,
        notes=["congestion must be 1; shared bits are poly(log n) "
               "(compare against n private bits in the standard model)"],
    )


# ----------------------------------------------------------------------
# E5 — Theorem 3.7: removing the h from the diameter
# ----------------------------------------------------------------------
def _e05_trial(spec: TrialSpec) -> TrialResult:
    base, h, t = spec.param("base"), spec.param("h"), spec.seed
    g = trial_graph("grid", spec.n, base + t)
    s1 = SparseRandomness.for_graph(g, h=h, seed=base + t)
    d1, _r1, _e1 = sparse_bits_decomposition(
        g, s1, spacing=4 * h + 4, strict=False)
    s2 = SparseRandomness.for_graph(g, h=h, seed=base + 100 + t)
    d2, _r2, _e2 = sparse_bits_strong_decomposition(
        g, s2, spacing=4 * h + 4, strict=False)
    data: Dict[str, object] = {}
    if d1 is not None:
        data["weak"] = d1.max_weak_diameter(g)
    if d2 is not None:
        data["strong"] = d2.max_strong_diameter(g)
    return TrialResult(spec, d1 is not None and d2 is not None, data)


def _e05_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    n = 144 if quick else 400
    trials = 2 if quick else 4
    return [sweep_scenario(
        f"e05-h{h}", "e05", "grid", (n,),
        description="Theorem 3.1 vs 3.7 diameter as h grows",
        seed_count=trials, base=seed, h=h) for h in (1, 2, 4)]


def e05_sparse_strong(quick: bool = False, seed: int = 0,
                      workers: Optional[int] = None,
                      store: Store = None,
                      shard: Shard = None,
                      progress: Progress = None) -> Table:
    """Theorem 3.1's diameter grows with h; Theorem 3.7's must not."""
    rows: List[Dict[str, object]] = []
    for scenario in _e05_plan(quick, seed):
        h = scenario.algorithm.param("h")
        n = scenario.graph.sizes[0]
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        weak_diams = [r.data["weak"] for r in results if "weak" in r.data]
        strong_diams = [r.data["strong"] for r in results
                        if "strong" in r.data]
        rows.append({
            "h": h,
            "Thm3.1 weak diam": max(weak_diams) if weak_diams else "-",
            "Thm3.7 strong diam": max(strong_diams) if strong_diams else "-",
            "O(log^2 n)": 2 * ceil_log2(n) ** 2,
        })
    return Table(
        title="E5 (Theorem 3.7): h-free strong-diameter decomposition",
        rows=rows,
        notes=["Thm 3.1 diameter scales with h; Thm 3.7 stays O(log^2 n) "
               "regardless of h"],
    )


# ----------------------------------------------------------------------
# E6 — Theorem 4.2: error boosting by shattering
# ----------------------------------------------------------------------
def _e06_trial(spec: TrialSpec) -> TrialResult:
    base, t = spec.param("base"), spec.seed
    g = trial_graph("grid", spec.n, base + t)
    source = IndependentSource(seed=base + 13 * t)
    dec, _rep, extra = shattering_decomposition(
        g, source, en_phases=spec.param("phases"), cap=spec.param("cap"))
    return TrialResult(spec, dec is not None and dec.is_valid(g),
                       {"leftover": extra["leftover"],
                        "separated": extra["separated_set_size"]})


def _e06_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    n = 100 if quick else 225
    trials = 20 if quick else 60
    phases = max(2, ceil_log2(n) // 2)  # under-provisioned on purpose
    cap = max(4, ceil_log2(n))
    return [sweep_scenario(
        "e06", "e06", "grid", (n,),
        description="Theorem 4.2 shattering with under-provisioned EN",
        seed_count=trials, base=seed, phases=phases, cap=cap)]


def e06_shattering(quick: bool = False, seed: int = 0,
                   workers: Optional[int] = None,
                   store: Store = None,
                   shard: Shard = None,
                   progress: Progress = None) -> Table:
    """Leftover-set statistics and the shattered finish.

    The EN stage is deliberately under-provisioned (few phases) so the
    leftover set V̄ is non-empty often; the shattering bound says the
    (2t+1)-separated core of V̄ is tiny, and the deterministic finish
    then always completes — strict EN fails where shattering succeeds.
    """
    scenario = _e06_plan(quick, seed)[0]
    n = scenario.graph.sizes[0]
    trials = scenario.seeds.count
    phases = scenario.algorithm.param("phases")
    rows: List[Dict[str, object]] = []
    results = scenario.run(workers=workers, store=store, shard=shard,
                           progress=progress)
    leftovers = [r.data["leftover"] for r in results if "leftover" in r.data]
    seps = [r.data["separated"] for r in results if "separated" in r.data]
    en_fail = sum(1 for value in leftovers if value > 0)
    shatter_ok = sum(1 for r in results if r.ok)
    max_k = max(seps, default=0)
    rows.append({
        "n": n,
        "EN phases": phases,
        "trials": trials,
        "strict EN failures": en_fail,
        "max |leftover|": max(leftovers, default=0),
        "max separated K": max_k,
        "log2 Pr bound (n^-K)": log2_or_floor(float(n) ** (-max_k)) if max_k else 0.0,
        "shattering success": shatter_ok / trials,
    })
    return Table(
        title="E6 (Theorem 4.2): shattering boosts the success probability",
        rows=rows,
        notes=["under-provisioned EN leaves leftovers, yet the separated "
               "core K stays tiny and the deterministic finish always "
               "completes: failure only via the n^-K event"],
    )


# ----------------------------------------------------------------------
# E7 — Lemma 4.1: exhaustive-seed derandomization
# ----------------------------------------------------------------------
def _check_lemma41(row: Dict[str, object],
                   per_seed_failures: List[int]) -> None:
    """Assert Lemma 4.1's averaging step on one searched E7 row.

    The mean failure count per seed is ``empirical error * |F|``; below
    one, some seed fails on no instance. So a row whose error is under
    1/|F| must be derandomized, and its good seeds are exactly the
    seeds with zero failures.
    """
    if (row["good seeds"] != per_seed_failures.count(0)
            or (row["empirical error"] < row["error threshold 1/|F|"]
                and not row["derandomized"])):
        raise InvalidSolution(
            f"E7 row contradicts Lemma 4.1's averaging step: {row}")


def e07_derandomize(quick: bool = False, seed: int = 0,
                    workers: Optional[int] = None,
                    store: Store = None,
                    shard: Shard = None,
                    progress: Progress = None) -> Table:
    """Seed enumeration over instance families of growing size."""
    degree = 8
    seed_bits = 10 if quick else 12
    rows: List[Dict[str, object]] = []
    for family_size in (4, 16, 64):
        instances = [
            random_instance(12, 24, degree, seed=seed + 101 * i)
            for i in range(family_size)
        ]
        try:
            result = exhaustive_derandomize(
                functools.partial(splits_under_codes, seed_bits=seed_bits),
                instances, seed_bits)
        except DerandomizationFailure:
            rows.append({
                "family size": family_size,
                "seed bits": seed_bits,
                "derandomized": False,
                "good seeds": 0,
                "of seeds": 1 << seed_bits,
                "empirical error": "-",
                "error threshold 1/|F|": 1.0 / family_size,
            })
            continue
        good = seeds_to_failure_curve(result).get(0, 0)
        rows.append({
            "family size": family_size,
            "seed bits": seed_bits,
            "derandomized": good > 0,
            "good seeds": good,
            "of seeds": result.seeds_tried,
            "empirical error": result.empirical_error,
            "error threshold 1/|F|": 1.0 / family_size,
        })
        _check_lemma41(rows[-1], result.per_seed_failures)
    return Table(
        title="E7 (Lemma 4.1): derandomization by seed enumeration",
        rows=rows,
        notes=["a good seed exists whenever the error probability is "
               "below 1/|family| — the finite analog of the 2^(-n^2) "
               "threshold over all n-node graphs"],
    )


# ----------------------------------------------------------------------
# E8 — Theorems 4.3/4.6: lying about n
# ----------------------------------------------------------------------
def _e08_run(spec: TrialSpec) -> Tuple[DistributedGraph, RandomSource]:
    base, t = spec.param("base"), spec.seed
    return (trial_graph("gnp-sparse", spec.n, base + t),
            IndependentSource(seed=base + 29 * t))


def _e08_trials(specs: List[TrialSpec]) -> List[TrialResult]:
    return [TrialResult(spec, ok, {"rounds": report.rounds})
            for spec, (_source, ok, report)
            in zip(specs, _en_trials(specs, _e08_run))]


@batched(_e08_trials)
def _e08_trial(spec: TrialSpec) -> TrialResult:
    return _e08_trials([spec])[0]


def _e08_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    """One scenario per claimed network size N = n * factor."""
    n = 64 if quick else 100
    trials = 20 if quick else 60
    factors = (1, 2, 4, 16) if quick else (1, 2, 4, 16, 64)
    plan = []
    for factor in factors:
        claimed = n * factor
        plan.append(sweep_scenario(
            f"e08-N{claimed}", "e08", "gnp-sparse", (n,),
            description=f"EN parametrized for claimed N={claimed}",
            seed_count=trials, base=seed,
            phases=max(2, math.ceil(0.75 * ceil_log2(claimed))),
            cap=max(4, ceil_log2(claimed))))
    return plan


def e08_lie_about_n(quick: bool = False, seed: int = 0,
                    workers: Optional[int] = None,
                    store: Store = None,
                    shard: Shard = None,
                    progress: Progress = None) -> Table:
    """Success probability and round cost of EN parametrized for N >= n."""
    plan = _e08_plan(quick, seed)
    n = plan[0].graph.sizes[0]
    trials = plan[0].seeds.count
    rows: List[Dict[str, object]] = []
    for scenario in plan:
        claimed = int(scenario.name.split("N", 1)[1])
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        outcomes = [r.ok for r in results]
        rounds = _last_metric(results, "rounds")
        failures = trials - sum(outcomes)
        rows.append({
            "claimed N": claimed,
            "T(N) rounds": rounds,
            "success": success_rate(outcomes),
            "failures": f"{failures}/{trials}",
            "log2 fail rate": log2_or_floor(failures / trials),
        })
    return Table(
        title="E8 (Theorems 4.3/4.6): error vs rounds by lying about n",
        rows=rows,
        notes=[f"true n={n}; the algorithm is parametrized for N and "
               f"cannot tell — failures drop as T(N) grows, the "
               f"time-vs-error trade-off both theorems trade on"],
    )


# ----------------------------------------------------------------------
# E9 — completeness consumers: MIS and coloring via decomposition
# ----------------------------------------------------------------------
def e09_mis_coloring(quick: bool = False, seed: int = 0,
                     workers: Optional[int] = None,
                     store: Store = None,
                     shard: Shard = None,
                     progress: Progress = None) -> Table:
    """Randomized engine algorithms vs deterministic via-decomposition."""
    sizes = (40, 80) if quick else (50, 100, 200)
    rows: List[Dict[str, object]] = []
    for n in sizes:
        g = trial_graph("gnp-dense", n, seed, id_seed=seed + n)
        luby = luby_mis(g, IndependentSource(seed=seed + 1))
        dec, dec_rep = deterministic_decomposition(g)
        mis_det, mis_rep = mis_via_decomposition(g, dec)
        trial = trial_coloring(g, IndependentSource(seed=seed + 2))
        col_det, col_rep = coloring_via_decomposition(g, dec)
        delta = g.max_degree()
        rows.append({
            "n": n,
            "Luby rounds": luby.report.rounds,
            "Luby valid": is_valid_mis(g, luby.outputs),
            "det MIS rounds": mis_rep.rounds,
            "det MIS valid": is_valid_mis(g, mis_det),
            "trial-color rounds": trial.report.rounds,
            "trial valid": is_proper_coloring(g, trial.outputs, delta + 1),
            "det color rounds": col_rep.rounds,
            "det valid": is_proper_coloring(g, col_det, delta + 1),
        })
    return Table(
        title="E9: MIS and (Delta+1)-coloring, randomized vs "
              "decomposition-based deterministic",
        rows=rows,
        notes=["Luby/trial rounds are engine-measured (CONGEST); "
               "via-decomposition rounds are colors*(diameter+2), the "
               "completeness reduction's cost"],
    )


# ----------------------------------------------------------------------
# E10 — sinkless orientation: the separation landscape
# ----------------------------------------------------------------------
def _e10_trial(spec: TrialSpec) -> TrialResult:
    base, t = spec.param("base"), spec.seed
    if spec.n % 2:
        # "regular-3" rounds an odd n up; a scenario row must not record
        # n for an (n + 1)-node graph.
        raise ConfigurationError("n * d must be even for a d-regular graph")
    g = trial_graph("regular-3", spec.n, base + t)
    orientation, _rep, extra = randomized_orientation(
        g, IndependentSource(seed=base + 37 * t))
    ok = orientation is not None and is_sinkless(g, orientation)
    return TrialResult(spec, ok, {"fixups": extra["fixup_rounds"]})


def _e10_plan(quick: bool, seed: int) -> List[ScenarioSpec]:
    sizes = (30, 90, 270) if quick else (30, 90, 270, 810)
    trials = 5 if quick else 15
    return [sweep_scenario(
        f"e10-n{n}", "e10", "regular-3", (n,),
        description="randomized sinkless-orientation fix-up convergence",
        seed_count=trials, base=seed) for n in sizes]


def e10_sinkless(quick: bool = False, seed: int = 0,
                 workers: Optional[int] = None,
                 store: Store = None,
                 shard: Shard = None,
                 progress: Progress = None) -> Table:
    """Randomized fix-up convergence on d-regular graphs."""
    from ..core import randomized_orientation_engine

    rows: List[Dict[str, object]] = []
    for scenario in _e10_plan(quick, seed):
        n = scenario.graph.sizes[0]
        results = scenario.run(workers=workers, store=store, shard=shard,
                               progress=progress)
        fixups = [r.data["fixups"] for r in results if "fixups" in r.data]
        valid = [r.ok for r in results]
        engine_ok: object = "-"
        if shard is None:
            # One engine-measured run per size: the genuine
            # message-passing variant of the same process
            # (CONGEST-enforced). Not run on shard hosts: it stores
            # nothing, so each host/worker would just repeat work the
            # final rendering run redoes anyway.
            g_engine = trial_graph("regular-3", n, seed)
            engine_o, _res = randomized_orientation_engine(
                g_engine, IndependentSource(seed=seed + 1))
            engine_ok = is_sinkless(g_engine, engine_o)
        rows.append({
            "n": n,
            "avg fix-up rounds": sum(fixups) / len(fixups) if fixups else "-",
            "max fix-up rounds": max(fixups) if fixups else "-",
            "log2 log2 n": round(math.log2(max(2, ceil_log2(n))), 2),
            "all valid": all(valid),
            "engine valid": engine_ok,
        })
    return Table(
        title="E10: sinkless orientation, randomized fix-up convergence",
        rows=rows,
        notes=["rounds should grow like the doubly-logarithmic landscape "
               "(Theta(log log n) randomized vs Theta(log n) deterministic "
               "[BFH+16, CKP16, GS17])"],
    )


# ----------------------------------------------------------------------
# E11 — uniform vs non-uniform algorithms (Section 2, Definitions 2.1/2.2)
# ----------------------------------------------------------------------
def e11_uniform(quick: bool = False, seed: int = 0,
                workers: Optional[int] = None,
                store: Store = None,
                shard: Shard = None,
                progress: Progress = None) -> Table:
    """Cost of uniformity: guess-and-double with local certification.

    A non-uniform algorithm that needs its input N >= n is made uniform
    by doubling the guess until the Definition 2.2 checker certifies the
    output. The table shows the multiplicative round overhead — the
    executable content of the paper's uniform/non-uniform split.
    """
    from ..checkers import MISChecker
    from ..core.decomposition import deterministic_decomposition
    from ..core.uniform import run_uniform
    from ..sim.metrics import RunReport

    sizes = (20, 60) if quick else (30, 100, 300)
    rows: List[Dict[str, object]] = []
    for n in sizes:
        g = trial_graph("gnp-sparse", n, seed, id_seed=seed + n)

        def non_uniform(graph, claimed_n):
            if claimed_n < graph.n:
                # Definition 2.1 only promises correctness for graphs of
                # size <= claimed_n; model the broken under-estimate run.
                return ({v: False for v in graph.nodes()},
                        RunReport(rounds=1, accounted=True))
            dec, _ = deterministic_decomposition(graph)
            return mis_via_decomposition(graph, dec)

        baseline = non_uniform(g, g.n)[1].rounds
        run = run_uniform(g, non_uniform, MISChecker())
        rows.append({
            "n": n,
            "final guess N": run.final_guess,
            "guesses": len(run.guesses_tried),
            "uniform rounds": run.report.rounds,
            "non-uniform rounds": baseline,
            "overhead": round(run.report.rounds / max(1, baseline), 2),
        })
    return Table(
        title="E11: uniform algorithms by guess-and-double + certification",
        rows=rows,
        notes=["the checker (Definition 2.2) is the stopping rule; the "
               "overhead is O(log n) guesses, each costing one run plus "
               "one d(N)-round verification"],
    )


#: registry used by benchmarks and the CLI of run_all.
EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    "e01": e01_sparse_bits,
    "e02": e02_kwise,
    "e03": e03_splitting,
    "e04": e04_shared_congest,
    "e05": e05_sparse_strong,
    "e06": e06_shattering,
    "e07": e07_derandomize,
    "e08": e08_lie_about_n,
    "e09": e09_mis_coloring,
    "e10": e10_sinkless,
    "e11": e11_uniform,
}

# Scenario-registry names for the sub-grid tasks: how library/loaded
# scenarios refer to them (repro.scenarios resolves these lazily, so a
# scenario file naming "e01" forces this module to import first).
register_task("e01", _e01_trial)
register_task("e02-ref", _e02_ref_trial)
register_task("e02-kwise", _e02_kwise_trial)
register_task("e03", _e03_trial, free_family=True)  # family = regime
register_task("e04", _e04_trial)
register_task("e05", _e05_trial)
register_task("e06", _e06_trial)
register_task("e08", _e08_trial)
register_task("e10", _e10_trial)

#: Per-driver scenario plans (sweeping drivers only): name -> plan fn.
SCENARIO_PLANS: Dict[str, Callable[[bool, int], List[ScenarioSpec]]] = {
    "e01": _e01_plan,
    "e02": _e02_plan,
    "e03": _e03_plan,
    "e04": _e04_plan,
    "e05": _e05_plan,
    "e06": _e06_plan,
    "e08": _e08_plan,
    "e10": _e10_plan,
}

#: Drivers with a per-seed run_trials sweep: exactly those with a
#: scenario plan. They are the only ones a sharded, store-populating run
#: needs to execute; e07/e09/e11 store nothing, so shard hosts skip them
#: and only the final rendering run computes them.
SWEEPING = frozenset(SCENARIO_PLANS)


def scenario_plan(name: str, quick: bool = False,
                  seed: int = 0) -> List[ScenarioSpec]:
    """The sub-scenarios a sweeping driver executes, in driver order.

    ``compile()`` of each emits exactly the TrialSpec grid the driver's
    historical ``run_trials`` call used (asserted byte-for-byte in
    ``tests/test_scenarios.py``), so stores and coordinator journals
    keyed on those specs survive the scenario-layer refactor unchanged.
    """
    if name not in SCENARIO_PLANS:
        raise ConfigurationError(
            f"no scenario plan for {name!r}; sweeping drivers: "
            f"{sorted(SCENARIO_PLANS)}")
    return SCENARIO_PLANS[name](quick, seed)


def run_experiment_grid(grid: ExperimentGrid,
                        workers: Optional[int] = None,
                        store: Store = None,
                        shard: Shard = None,
                        progress: Progress = None
                        ) -> Iterator[Tuple[str, Table]]:
    """Run an experiments-kind grid: an iterator of ``(name, table)``
    pairs in the grid's order, each driver running as its pair is
    drawn, so a caller can print every table as soon as it is done.

    The one dispatch for every table run: the CLI (local, shard and
    coordinator runs), ``--scenario`` experiment grids and
    :func:`run_all` all come through here. Names may be E1–E11 drivers
    or A1–A3 ablations (which take only the profile and seed); unknown
    ones raise when this is called, before any driver runs. In shard
    mode only the :data:`SWEEPING` drivers run: the others have no
    trials to slice or store, so they run on the host that renders the
    merged store.
    """
    unknown = [name for name in grid.names
               if name not in EXPERIMENTS and name not in ABLATIONS]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s) {unknown}; choose from "
            f"{sorted(EXPERIMENTS) + sorted(ABLATIONS)}")
    quick = grid.profile == "quick"

    def table(name: str) -> Table:
        if name in ABLATIONS:
            return ABLATIONS[name](quick=quick, seed=grid.seed)
        return EXPERIMENTS[name](quick=quick, seed=grid.seed,
                                 workers=workers, store=store, shard=shard,
                                 progress=progress)

    return ((name, table(name)) for name in grid.names
            if shard is None or name in SWEEPING)


def run_all(quick: bool = True, seed: int = 0,
            workers: Optional[int] = None,
            store: Store = None,
            shard: Shard = None,
            progress: Progress = None) -> List[Table]:
    """Run every experiment; returns the tables in order.

    ``workers`` fans each experiment's seed sweep across processes via
    :func:`repro.sim.batch.run_trials` (None -> $REPRO_WORKERS -> 1);
    ``store``/``shard`` make the sweeps durable and sliceable (see the
    module docstring). In shard mode only the :data:`SWEEPING` drivers
    run (and are returned): the others have no trials to slice or
    store, so executing them per shard host would be duplicated work
    discarded on merge. ``progress`` is handed to every ``run_trials``
    call (see the module docstring).
    """
    grid = ExperimentGrid(names=tuple(sorted(EXPERIMENTS)),
                          profile="quick" if quick else "full", seed=seed)
    return [table for _name, table in
            run_experiment_grid(grid, workers=workers, store=store,
                                shard=shard, progress=progress)]
