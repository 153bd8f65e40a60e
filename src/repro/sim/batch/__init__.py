"""Batch simulation: CSR topology, the round engine, and seed sweeps.

The scaling layer of the simulator: the static network structure is
frozen once, when the :class:`~repro.sim.graph.DistributedGraph` is
built (its :class:`CSRGraph`); every message-passing program runs on it
as whole-round fused numpy passes with no per-node Python dispatch at
all (:class:`ArrayEngine` running :class:`ArrayProgram`\\ s — the three
primitives, under a :class:`RoundFaultPlan` and with UIDs of any width
too, color trials, Cole–Vishkin reduction and the sinkless fix-up),
and whole (family, size, seed) grids fan across processes
(:func:`run_trials`).
"""

import importlib

from ...randomness.block import deterministic_uniform
from .array import (
    ArrayContext,
    ArrayEngine,
    ArrayProgram,
    Sends,
)
from .csr import CSRGraph, ensure_csr
from .tasks import bfs_forest_trial, flood_min_trial, luby_mis_trial
from .runner import (
    TrialResult,
    TrialSpec,
    aggregate,
    batched,
    default_chunksize,
    grid,
    resolve_workers,
    run_trials,
    shard,
)
from .store import (
    RESULT_FORMAT_VERSION,
    ReadThroughStore,
    canonical_spec,
    merge_stores,
    record_digest,
    spec_key,
)

#: Names re-exported lazily (PEP 562), imported on first access: the
#: columnar store, which storeless runs never open, and the coordinator
#: stack (http.server, urllib.request, ssl), which experiments and local
#: sweeps never use.
_LAZY = {
    "colstore": ("COLSTORE_FORMAT_VERSION", "ColumnarStore", "compact",
                 "verify_migration"),
    "distrib": (
        "AuthenticationError",
        "CoordinatorClient",
        "CoordinatorServer",
        "CoordinatorUnavailable",
        "DirTransport",
        "HTTPTransport",
        "LeaseReply",
        "PushIntegrityError",
        "RetryPolicy",
        "RetryableError",
        "SweepCoordinator",
        "Transport",
        "WorkUnit",
        "merge_pushed",
        "pushed_store_dirs",
        "run_worker",
        "wait_until_done",
    ),
    "faults": ("FaultPlan", "FlakyControl", "FlakyTransport",
               "RoundFaultPlan"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names}


def __getattr__(name):
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ArrayContext",
    "ArrayEngine",
    "ArrayProgram",
    "AuthenticationError",
    "COLSTORE_FORMAT_VERSION",
    "CSRGraph",
    "ColumnarStore",
    "CoordinatorClient",
    "CoordinatorServer",
    "CoordinatorUnavailable",
    "DirTransport",
    "FaultPlan",
    "FlakyControl",
    "FlakyTransport",
    "HTTPTransport",
    "LeaseReply",
    "PushIntegrityError",
    "RESULT_FORMAT_VERSION",
    "ReadThroughStore",
    "RetryPolicy",
    "RetryableError",
    "RoundFaultPlan",
    "Sends",
    "SweepCoordinator",
    "Transport",
    "TrialResult",
    "TrialSpec",
    "WorkUnit",
    "aggregate",
    "batched",
    "bfs_forest_trial",
    "canonical_spec",
    "compact",
    "default_chunksize",
    "deterministic_uniform",
    "ensure_csr",
    "flood_min_trial",
    "grid",
    "luby_mis_trial",
    "merge_pushed",
    "merge_stores",
    "pushed_store_dirs",
    "record_digest",
    "resolve_workers",
    "run_trials",
    "run_worker",
    "shard",
    "spec_key",
    "verify_migration",
    "wait_until_done",
]
