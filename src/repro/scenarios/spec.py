"""The scenario model: one frozen spec per workload, compiled to grids.

A :class:`ScenarioSpec` is the single declarative description of a
workload: which graphs (family and size schedule), which algorithm,
how UIDs are assigned, how much randomness the nodes may burn, what
faults the network injects, and which seeds to sweep. The paper
experiments (E1–E11) and the adversarial library workloads
(``repro/scenarios/library/*.yaml``) are both expressed in it, so
"what did this run actually execute?" always has one canonical,
serializable answer.

Two kinds of scenario share the class:

* **sweep** — ``graph`` + ``algorithm`` (+ optional ``ids`` /
  ``randomness`` / ``faults``) + ``seeds``. :meth:`ScenarioSpec.compile`
  emits the exact :class:`~repro.sim.batch.runner.TrialSpec` grid
  :func:`~repro.sim.batch.runner.run_trials` takes — sizes outer, seeds
  inner — and :meth:`ScenarioSpec.run` executes it. Optional sections
  compile to *no* spec params when absent, so a plain scenario produces
  byte-identical specs (and therefore identical trial-store keys,
  :func:`~repro.sim.batch.store.spec_key`) to the hand-written grids
  that predate this module.
* **experiments** — an :class:`ExperimentGrid` naming E1–E11 drivers
  with a profile and seed; the CLIs dispatch these through
  :mod:`repro.analysis.experiments` unchanged.

Serialization is strict both ways: :meth:`ScenarioSpec.from_dict`
rejects unknown keys, wrong types, and bad enum values with
:class:`~repro.errors.ConfigurationError`; :meth:`ScenarioSpec.to_dict`
omits every default, so ``from_dict(to_dict(s)) == s`` exactly and
:meth:`ScenarioSpec.digest` (BLAKE2b over the sorted-key canonical
JSON) is stable however the source file ordered its keys.

Tasks are named through a registry (:func:`register_task`): the
built-in simulation tasks are registered by :mod:`repro.scenarios` on
import, the experiment sub-grid tasks by
:mod:`repro.analysis.experiments`; resolution lazily imports the
latter so this module never depends on the analysis layer at import
time (the analysis layer imports *us*).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..graphs.generators import FAMILIES
from ..graphs.ids import SCHEMES

#: Spec params the compiler owns (and ``engine``, which no spec may
#: set); algorithm params must not shadow them.
RESERVED_PARAMS = frozenset(
    (
        "engine",
        "ids",
        "bit_budget",
        "fault_seed",
        "fault_crash",
        "fault_loss",
        "fault_churn",
        "fault_start",
    )
)

#: JSON scalar types allowed as algorithm param values (must survive a
#: YAML/JSON round trip and be hashable inside a TrialSpec).
_SCALARS = (str, int, float, bool, type(None))

# ----------------------------------------------------------------------
# Task registry
# ----------------------------------------------------------------------
_TASKS: Dict[str, Tuple[Callable, bool]] = {}


def register_task(name: str, fn: Callable, free_family: bool = False) -> None:
    """Register a trial task under a scenario-facing name.

    ``free_family=True`` marks tasks that reinterpret the spec's
    ``family`` field (E3 uses it for the randomness regime), exempting
    them from the :data:`~repro.graphs.generators.FAMILIES` check.
    """
    existing = _TASKS.get(name)
    if existing is not None and existing != (fn, free_family):
        raise ConfigurationError(
            f"task {name!r} is already registered to a different function"
        )
    _TASKS[name] = (fn, free_family)


def task_names() -> List[str]:
    """Registered task names (built-ins plus whatever imported so far)."""
    return sorted(_TASKS)


def resolve_task(name: str) -> Tuple[Callable, bool]:
    """Look up ``(task_fn, free_family)``, importing the experiment
    tasks on a miss (they register themselves on import)."""
    if name not in _TASKS:
        # Deferred: analysis.experiments imports this module, so the
        # reverse edge must stay out of module scope.
        import repro.analysis.experiments  # noqa: F401
    if name not in _TASKS:
        raise ConfigurationError(
            f"unknown task {name!r}; registered tasks: {task_names()}"
        )
    return _TASKS[name]


# ----------------------------------------------------------------------
# Section dataclasses
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclasses.dataclass(frozen=True)
class GraphSchedule:
    """Which graphs: a family name and the sizes to sweep, in order."""

    family: str
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        _require(
            isinstance(self.family, str) and bool(self.family),
            "graph.family must be a non-empty string",
        )
        sizes = tuple(self.sizes)
        _require(bool(sizes), "graph.sizes must list at least one size")
        for n in sizes:
            _require(
                isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                f"graph.sizes entries must be integers >= 1, got {n!r}",
            )
        object.__setattr__(self, "sizes", sizes)


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """Which algorithm: a registered task name and its knobs.

    There is no engine key: every task runs its primitive on the one
    array engine, faults and UIDs of any width included.
    """

    task: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(
            isinstance(self.task, str) and bool(self.task),
            "algorithm.task must be a non-empty string",
        )
        params = tuple(
            sorted((tuple(pair) for pair in self.params), key=lambda pair: pair[0])
        )
        for key, value in params:
            _require(
                isinstance(key, str) and bool(key),
                f"algorithm.params keys must be strings, got {key!r}",
            )
            _require(
                key not in RESERVED_PARAMS,
                f"algorithm.params may not set {key!r}; that knob "
                f"belongs to its own scenario section",
            )
            _require(
                isinstance(value, _SCALARS),
                f"algorithm.params[{key!r}] must be a JSON scalar, "
                f"got {type(value).__name__}",
            )
        object.__setattr__(self, "params", params)

    @classmethod
    def of(cls, task: str, **params: Any) -> AlgorithmSpec:
        return cls(task, tuple(params.items()))

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclasses.dataclass(frozen=True)
class IdAssignment:
    """How UIDs are assigned (:data:`repro.graphs.ids.SCHEMES`)."""

    scheme: str

    def __post_init__(self) -> None:
        _require(
            self.scheme in SCHEMES,
            f"ids.scheme must be one of {sorted(SCHEMES)}, got {self.scheme!r}",
        )


@dataclasses.dataclass(frozen=True)
class RandomnessBudget:
    """A hard cap on the bits each trial's randomness source serves."""

    bit_budget: int

    def __post_init__(self) -> None:
        _require(
            isinstance(self.bit_budget, int)
            and not isinstance(self.bit_budget, bool)
            and self.bit_budget >= 1,
            f"randomness.bit_budget must be an integer >= 1, "
            f"got {self.bit_budget!r}",
        )


@dataclasses.dataclass(frozen=True)
class FaultModel:
    """Per-round network faults (see :class:`~repro.sim.batch.faults.
    RoundFaultPlan` for the exact semantics of each rate)."""

    crash: float = 0.0
    loss: float = 0.0
    churn: float = 0.0
    seed: Optional[int] = None
    start_round: int = 1

    def __post_init__(self) -> None:
        for name in ("crash", "loss", "churn"):
            rate = getattr(self, name)
            _require(
                isinstance(rate, (int, float))
                and not isinstance(rate, bool)
                and 0.0 <= rate <= 1.0,
                f"faults.{name} must be in [0, 1], got {rate!r}",
            )
        _require(
            self.crash > 0 or self.loss > 0 or self.churn > 0,
            "faults section present but every rate is 0 — drop the "
            "section instead of writing a no-op fault model",
        )
        if self.seed is not None:
            _require(
                isinstance(self.seed, int) and not isinstance(self.seed, bool),
                f"faults.seed must be an integer, got {self.seed!r}",
            )
        _require(
            isinstance(self.start_round, int)
            and not isinstance(self.start_round, bool)
            and self.start_round >= 1,
            f"faults.start_round must be an integer >= 1, got {self.start_round!r}",
        )


@dataclasses.dataclass(frozen=True)
class SeedPlan:
    """The seed sweep: trials get seeds ``base, base+1, ..``."""

    base: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        _require(
            isinstance(self.base, int) and not isinstance(self.base, bool),
            f"seeds.base must be an integer, got {self.base!r}",
        )
        _require(
            isinstance(self.count, int)
            and not isinstance(self.count, bool)
            and self.count >= 1,
            f"seeds.count must be an integer >= 1, got {self.count!r}",
        )


@dataclasses.dataclass(frozen=True)
class ExperimentGrid:
    """Which E1–E11 drivers (or A1–A3 ablations) to run, at which
    profile, with which seed."""

    names: Tuple[str, ...]
    profile: str = "quick"
    seed: int = 1

    def __post_init__(self) -> None:
        names = tuple(self.names)
        _require(bool(names), "experiments.names must list at least one experiment")
        for name in names:
            _require(
                isinstance(name, str) and bool(name),
                f"experiments.names entries must be strings, got {name!r}",
            )
        _require(
            len(set(names)) == len(names),
            f"experiments.names has duplicates: {list(names)}",
        )
        _require(
            self.profile in ("quick", "full"),
            f"experiments.profile must be 'quick' or 'full', got {self.profile!r}",
        )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"experiments.seed must be an integer, got {self.seed!r}",
        )
        object.__setattr__(self, "names", names)


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One workload, declaratively. See the module docstring."""

    name: str
    description: str = ""
    graph: Optional[GraphSchedule] = None
    algorithm: Optional[AlgorithmSpec] = None
    ids: Optional[IdAssignment] = None
    randomness: Optional[RandomnessBudget] = None
    faults: Optional[FaultModel] = None
    seeds: Optional[SeedPlan] = None
    experiments: Optional[ExperimentGrid] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "scenario name must be a non-empty string",
        )
        _require(
            isinstance(self.description, str),
            "scenario description must be a string",
        )
        if self.experiments is not None:
            for field in ("graph", "algorithm", "ids", "randomness", "faults", "seeds"):
                _require(
                    getattr(self, field) is None,
                    f"an experiments scenario cannot also carry a "
                    f"{field!r} section",
                )
        else:
            _require(self.graph is not None, "a sweep scenario needs a 'graph' section")
            _require(
                self.algorithm is not None,
                "a sweep scenario needs an 'algorithm' section",
            )
            if self.seeds is None:
                object.__setattr__(self, "seeds", SeedPlan())

    # -- classification ------------------------------------------------
    @property
    def kind(self) -> str:
        """``"experiments"`` or ``"sweep"``."""
        return "experiments" if self.experiments is not None else "sweep"

    # -- compilation ---------------------------------------------------
    def task(self) -> Callable:
        """The sweep's trial task function (resolved via the registry)."""
        _require(
            self.kind == "sweep",
            f"scenario {self.name!r} is an experiments grid; it has "
            f"no single trial task",
        )
        fn, free_family = resolve_task(self.algorithm.task)
        if not free_family:
            _require(
                self.graph.family in FAMILIES,
                f"unknown graph family {self.graph.family!r}; choose "
                f"from {sorted(FAMILIES)}",
            )
        return fn

    def _extra_params(self) -> Dict[str, Any]:
        """The compiled knob set: algorithm params plus the optional
        sections that are actually present. Absent sections contribute
        nothing, keeping plain scenarios' TrialSpecs (and store keys)
        byte-identical to hand-written grids."""
        extra: Dict[str, Any] = dict(self.algorithm.params)
        if self.ids is not None:
            extra["ids"] = self.ids.scheme
        if self.randomness is not None:
            extra["bit_budget"] = self.randomness.bit_budget
        if self.faults is not None:
            f = self.faults
            if f.crash:
                extra["fault_crash"] = f.crash
            if f.loss:
                extra["fault_loss"] = f.loss
            if f.churn:
                extra["fault_churn"] = f.churn
            if f.seed is not None:
                extra["fault_seed"] = f.seed
            if f.start_round != 1:
                extra["fault_start"] = f.start_round
        return extra

    def compile(self) -> List["TrialSpec"]:
        """The exact TrialSpec grid: sizes outer, seed sweep inner."""
        from ..sim.batch.runner import TrialSpec

        self.task()  # validate task + family before emitting anything
        extra = self._extra_params()
        return [
            TrialSpec.of(self.graph.family, n, self.seeds.base + t, **extra)
            for n in self.graph.sizes
            for t in range(self.seeds.count)
        ]

    def run(
        self,
        workers: Optional[int] = None,
        store: Optional[Any] = None,
        shard: Optional[Tuple[int, int]] = None,
        progress: Optional[Callable] = None,
    ) -> List[Any]:
        """Execute the compiled grid through :func:`run_trials`.

        The task function is passed by reference, so store namespaces
        stay the task's module-qualified name — a scenario-driven run
        shares its cache with the equivalent hand-rolled sweep.
        """
        from ..sim.batch.runner import run_trials

        return run_trials(
            self.task(),
            self.compile(),
            workers=workers,
            store=store,
            shard=shard,
            progress=progress,
        )

    def scaled(self, max_size: int = 24, max_count: int = 2) -> "ScenarioSpec":
        """A cheap variant for smokes/tests: sizes clamped to
        ``max_size`` (deduplicated, order kept), seed count clamped to
        ``max_count``; experiments grids drop to the quick profile."""
        if self.kind == "experiments":
            return dataclasses.replace(
                self,
                experiments=dataclasses.replace(self.experiments, profile="quick"),
            )
        sizes: List[int] = []
        for n in self.graph.sizes:
            clamped = min(n, max_size)
            if clamped not in sizes:
                sizes.append(clamped)
        return dataclasses.replace(
            self,
            graph=dataclasses.replace(self.graph, sizes=tuple(sizes)),
            seeds=dataclasses.replace(
                self.seeds, count=min(self.seeds.count, max_count)
            ),
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A pure-JSON dict, defaults omitted (so round trips are exact
        and the digest ignores how a file spelled its defaults)."""
        data: Dict[str, Any] = {"name": self.name}
        if self.description:
            data["description"] = self.description
        if self.experiments is not None:
            grid: Dict[str, Any] = {"names": list(self.experiments.names)}
            if self.experiments.profile != "quick":
                grid["profile"] = self.experiments.profile
            if self.experiments.seed != 1:
                grid["seed"] = self.experiments.seed
            data["experiments"] = grid
            return data
        data["graph"] = {
            "family": self.graph.family,
            "sizes": list(self.graph.sizes),
        }
        algorithm: Dict[str, Any] = {"task": self.algorithm.task}
        if self.algorithm.params:
            algorithm["params"] = dict(self.algorithm.params)
        data["algorithm"] = algorithm
        if self.ids is not None:
            data["ids"] = {"scheme": self.ids.scheme}
        if self.randomness is not None:
            data["randomness"] = {"bit_budget": self.randomness.bit_budget}
        if self.faults is not None:
            f = self.faults
            faults: Dict[str, Any] = {}
            if f.crash:
                faults["crash"] = f.crash
            if f.loss:
                faults["loss"] = f.loss
            if f.churn:
                faults["churn"] = f.churn
            if f.seed is not None:
                faults["seed"] = f.seed
            if f.start_round != 1:
                faults["start_round"] = f.start_round
            data["faults"] = faults
        if self.seeds != SeedPlan():
            seeds: Dict[str, Any] = {}
            if self.seeds.base != 0:
                seeds["base"] = self.seeds.base
            if self.seeds.count != 1:
                seeds["count"] = self.seeds.count
            data["seeds"] = seeds
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict`: unknown keys, non-mapping
        sections, and bad values all raise ConfigurationError."""
        _require(
            isinstance(data, Mapping),
            f"a scenario must be a mapping, got {type(data).__name__}",
        )
        _check_keys(
            data,
            (
                "name",
                "description",
                "graph",
                "algorithm",
                "ids",
                "randomness",
                "faults",
                "seeds",
                "experiments",
            ),
            "scenario",
        )
        name = data.get("name")
        _require(
            isinstance(name, str) and bool(name),
            "scenario name must be a non-empty string",
        )
        kwargs: Dict[str, Any] = {
            "name": name,
            "description": data.get("description", ""),
        }
        if "experiments" in data:
            # The early return below never builds the sweep sections,
            # so their absence must be enforced here, not in __post_init__.
            _check_keys(
                data,
                ("name", "description", "experiments"),
                "an experiments scenario",
            )
            section = _section(data, "experiments")
            _check_keys(section, ("names", "profile", "seed"), "experiments")
            names = section.get("names")
            _require(
                isinstance(names, (list, tuple)),
                "experiments.names must be a list",
            )
            kwargs["experiments"] = ExperimentGrid(
                names=tuple(names),
                profile=section.get("profile", "quick"),
                seed=section.get("seed", 1),
            )
            return cls(**kwargs)
        section = _section(data, "graph")
        _check_keys(section, ("family", "sizes"), "graph")
        sizes = section.get("sizes")
        _require(isinstance(sizes, (list, tuple)), "graph.sizes must be a list")
        kwargs["graph"] = GraphSchedule(
            family=section.get("family"),
            sizes=tuple(sizes),
        )
        section = _section(data, "algorithm")
        _check_keys(section, ("task", "params"), "algorithm")
        params = section.get("params", {})
        _require(isinstance(params, Mapping), "algorithm.params must be a mapping")
        kwargs["algorithm"] = AlgorithmSpec(
            task=section.get("task"),
            params=tuple(params.items()),
        )
        if "ids" in data:
            section = _section(data, "ids")
            _check_keys(section, ("scheme",), "ids")
            kwargs["ids"] = IdAssignment(scheme=section.get("scheme"))
        if "randomness" in data:
            section = _section(data, "randomness")
            _check_keys(section, ("bit_budget",), "randomness")
            kwargs["randomness"] = RandomnessBudget(
                bit_budget=section.get("bit_budget")
            )
        if "faults" in data:
            section = _section(data, "faults")
            _check_keys(
                section,
                ("crash", "loss", "churn", "seed", "start_round"),
                "faults",
            )
            kwargs["faults"] = FaultModel(
                crash=section.get("crash", 0.0),
                loss=section.get("loss", 0.0),
                churn=section.get("churn", 0.0),
                seed=section.get("seed"),
                start_round=section.get("start_round", 1),
            )
        if "seeds" in data:
            section = _section(data, "seeds")
            _check_keys(section, ("base", "count"), "seeds")
            kwargs["seeds"] = SeedPlan(
                base=section.get("base", 0),
                count=section.get("count", 1),
            )
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Sorted-key, minimal-separator JSON — the digest's preimage."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Stable 128-bit content address of the scenario."""
        return hashlib.blake2b(
            self.canonical_json().encode("utf-8"), digest_size=16
        ).hexdigest()


def _check_keys(
    mapping: Mapping[str, Any], allowed: Tuple[str, ...], where: str
) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; allowed keys: {sorted(allowed)}"
        )


def _section(data: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    section = data.get(key)
    _require(
        isinstance(section, Mapping),
        f"scenario section {key!r} must be a mapping, got {type(section).__name__}",
    )
    return section


def sweep_scenario(
    name: str,
    task: str,
    family: str,
    sizes,
    *,
    description: str = "",
    ids: Optional[str] = None,
    bit_budget: Optional[int] = None,
    faults: Optional[FaultModel] = None,
    seed_base: int = 0,
    seed_count: int = 1,
    **params: Any,
) -> ScenarioSpec:
    """Terse builder for sweep scenarios (the experiment plans use it).

    ``seed_base``/``seed_count`` feed the :class:`SeedPlan`; remaining
    keywords become algorithm params (so a task knob named ``base``
    doesn't collide with the seed plan).
    """
    randomness = None
    if bit_budget is not None:
        randomness = RandomnessBudget(bit_budget=bit_budget)
    return ScenarioSpec(
        name=name,
        description=description,
        graph=GraphSchedule(family=family, sizes=tuple(sizes)),
        algorithm=AlgorithmSpec.of(task, **params),
        ids=None if ids is None else IdAssignment(scheme=ids),
        randomness=randomness,
        faults=faults,
        seeds=SeedPlan(base=seed_base, count=seed_count),
    )
