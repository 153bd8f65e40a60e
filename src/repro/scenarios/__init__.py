"""Declarative scenarios: every workload as one frozen, loadable spec.

``repro.scenarios`` is the single front door for describing a run —
the E1–E11 paper grids and the adversarial workloads (hostile UID
assignments, mid-round crashes, lossy CONGEST links, edge churn,
skewed topologies) are all instances of :class:`ScenarioSpec`, loaded
from YAML/JSON or built in code, content-addressed by
:meth:`ScenarioSpec.digest`, and compiled to the exact
:class:`~repro.sim.batch.runner.TrialSpec` grids
:func:`~repro.sim.batch.runner.run_trials` executes. See ``spec.py``
for the model and ``library/`` for the named scenarios the CLIs accept
via ``--scenario``.
"""

from ..sim.batch.tasks import bfs_forest_trial, flood_min_trial, luby_mis_trial
from .loader import (
    LIBRARY_DIR,
    available,
    dumps,
    load,
    load_named,
    loads,
    scenario_from_arg,
)
from .spec import (
    AlgorithmSpec,
    ExperimentGrid,
    FaultModel,
    GraphSchedule,
    IdAssignment,
    RandomnessBudget,
    ScenarioSpec,
    SeedPlan,
    register_task,
    resolve_task,
    sweep_scenario,
    task_names,
)

# The built-in simulation tasks are always available by name; the
# experiment sub-grid tasks (e01, ...) register themselves when
# repro.analysis.experiments imports (resolve_task triggers it lazily).
register_task("luby-mis", luby_mis_trial)
register_task("flood-min", flood_min_trial)
register_task("bfs-forest", bfs_forest_trial)

__all__ = [
    "LIBRARY_DIR",
    "AlgorithmSpec",
    "ExperimentGrid",
    "FaultModel",
    "GraphSchedule",
    "IdAssignment",
    "RandomnessBudget",
    "ScenarioSpec",
    "SeedPlan",
    "available",
    "dumps",
    "load",
    "load_named",
    "loads",
    "register_task",
    "resolve_task",
    "scenario_from_arg",
    "sweep_scenario",
    "task_names",
]
