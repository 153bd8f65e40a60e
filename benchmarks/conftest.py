"""Shared fixtures for the benchmark harness.

Each ``bench_eXX`` module regenerates one experiment table (one
function in :mod:`repro.analysis.experiments`). The experiments are
statistical, not micro-benchmarks, so every benchmark runs exactly once
(``pedantic`` with one round) and the timing reported by
pytest-benchmark is the cost of regenerating the table. The rendered
tables are printed so ``pytest benchmarks/ --benchmark-only -s``
reproduces the EXPERIMENTS.md content.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_table(benchmark):
    """Run an experiment once under the benchmark timer and print it."""

    def runner(experiment, **kwargs):
        table = benchmark.pedantic(
            lambda: experiment(**kwargs), rounds=1, iterations=1)
        print()
        print(table.render())
        return table

    return runner
