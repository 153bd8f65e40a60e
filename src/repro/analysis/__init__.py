"""Experiment drivers (E1–E11), ablations, statistics, and table rendering."""

from .ablations import ABLATIONS
from .experiments import EXPERIMENTS, run_all
from .stats import geometric_mean, log2_or_floor, success_rate, wilson_interval
from .tables import Table

__all__ = [
    "ABLATIONS",
    "EXPERIMENTS",
    "Table",
    "geometric_mean",
    "log2_or_floor",
    "run_all",
    "success_rate",
    "wilson_interval",
]
