"""Simulators for the LOCAL, CONGEST and SLOCAL models (Section 2)."""

from .batch import (
    ArrayEngine,
    ArrayProgram,
    CSRGraph,
    TrialResult,
    TrialSpec,
    aggregate,
    grid,
    run_trials,
)
from .graph import DistributedGraph
from .messages import CONGEST, LOCAL, congest_limit, message_bits
from .metrics import AlgorithmResult, RunReport
from .primitives import (
    ArrayBFSForest,
    ArrayFloodMin,
    build_bfs_forest,
    convergecast_sum,
    flood_min,
)
from .slocal import SLocalSimulator, SLocalView

__all__ = [
    "AlgorithmResult",
    "ArrayBFSForest",
    "ArrayEngine",
    "ArrayFloodMin",
    "ArrayProgram",
    "CSRGraph",
    "TrialResult",
    "TrialSpec",
    "aggregate",
    "grid",
    "run_trials",
    "build_bfs_forest",
    "convergecast_sum",
    "flood_min",
    "CONGEST",
    "DistributedGraph",
    "LOCAL",
    "RunReport",
    "SLocalSimulator",
    "SLocalView",
    "congest_limit",
    "message_bits",
]
