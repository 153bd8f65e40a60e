"""Color trials, Cole–Vishkin reduction and the sinkless fix-up on
ArrayEngine must be observationally identical to their per-node twins.

``TrialColoring`` (E9), ``ColorReduceCV`` (the deterministic contrast)
and ``SinklessFixupProgram`` (E10) run as whole-round array programs;
``helpers`` keeps each one's per-node form (``NodeTrialColoring``,
``NodeColorReduceCV``, ``NodeSinklessFixup``) on the reference
SyncEngine. For every family, size and seed — and for UIDs past 2**62 —
outputs and the full report must match bit for bit. Under a bit budget
both runs stop at the same draw: the same exception type at the same
node, and the same ledger. The library's entry points are ArrayEngine
runs, and no module in src defines or imports a second engine.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

import networkx as nx
import pytest

from helpers import (
    FAMILY_NAMES,
    NodeColorReduceCV,
    NodeSinklessFixup,
    NodeTrialColoring,
    SyncEngine,
    oracle_fixup,
    oracle_three_colors,
    oracle_trial_coloring,
    source_ledger,
)
from repro.core.coloring import TrialColoring, is_proper_coloring, trial_coloring
from repro.core.linial import ColorReduceCV, reduce_to_three_colors
from repro.core.sinkless import (
    SinklessFixupProgram,
    is_sinkless,
    randomized_orientation_engine,
)
from repro.errors import (
    BandwidthExceeded,
    ConfigurationError,
    ModelViolation,
    RandomnessExhausted,
)
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim import CONGEST, ArrayEngine
from repro.sim.batch import RoundFaultPlan
from repro.sim.graph import DistributedGraph

SIZES = (13, 32)
SEEDS = tuple(range(5))

#: A bandwidth no run here reaches, for the payloads of wide UIDs.
WIDE_BANDWIDTH = 1 << 12

#: UIDs past the int64 headroom ArrayEngine keeps (2**62), at the int64
#: end, and past int64 altogether.
WIDE_UIDS = [[3, 2**62, 7, 2**70, 5, 11],
             [2**64 + 1, 2**64 + 3, 2**64 + 2, 9, 1, 2**63 - 1]]


def assert_identical(ref, arr):
    assert arr.outputs == ref.outputs
    assert dataclasses.asdict(arr.report) == dataclasses.asdict(ref.report)


def error_site(exc: Exception):
    """An engine error's type and the node its text names first (the
    sender, or the node whose draw ran out): the receiver a bandwidth
    error names may differ between engines."""
    return type(exc), re.search(r"node (-?\d+)", str(exc)).group(1)


def run_outcome(run, source):
    """Outputs and report, or the error site; then the source's bits
    consumed and ledger."""
    try:
        result = run(source)
        outcome = (result.outputs, dataclasses.asdict(result.report))
    except (RandomnessExhausted, BandwidthExceeded) as exc:
        outcome = error_site(exc)
    return outcome, source.bits_consumed, source_ledger(source)


def graph(family, n, seed):
    return assign(make(family, n, seed=seed), "random", seed=seed)


def fixup(g, source, **kwargs):
    return randomized_orientation_engine(g, source, **kwargs)[1]


class TestTrialColoring:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_parity_sweep(self, family):
        for n in SIZES:
            for seed in SEEDS:
                g = graph(family, n, seed)
                ref = oracle_trial_coloring(g, IndependentSource(seed=seed))
                arr = trial_coloring(g, IndependentSource(seed=seed))
                assert_identical(ref, arr)
                assert is_proper_coloring(g, arr.outputs, g.max_degree() + 1)

    @pytest.mark.parametrize("uids", WIDE_UIDS)
    def test_wide_uids(self, uids):
        # A clique: every node meets every other UID in a tiebreak.
        g = DistributedGraph(nx.complete_graph(6), uids=uids)
        ref = SyncEngine(g, lambda _v: NodeTrialColoring(),
                         source=IndependentSource(seed=1), model=CONGEST,
                         bandwidth_bits=WIDE_BANDWIDTH).run()
        arr = ArrayEngine(g, TrialColoring(), source=IndependentSource(seed=1),
                          model=CONGEST, bandwidth_bits=WIDE_BANDWIDTH).run()
        assert_identical(ref, arr)
        assert arr.report.max_message_bits > 64
        assert sorted(arr.outputs.values()) == list(range(6))

    @pytest.mark.parametrize("family", ["gnp-sparse", "cliques", "lopsided"])
    def test_budget_exhaustion(self, family):
        for seed in range(3):
            g = graph(family, 40, seed)
            need = trial_coloring(g, IndependentSource(seed=seed)) \
                .report.randomness_bits
            for budget in (0, 1, 7, need // 3, need // 2, need - 1, need):
                outcomes = [run_outcome(
                    run, IndependentSource(seed=seed, bit_budget=budget))
                    for run in (lambda s: oracle_trial_coloring(g, s),
                                lambda s: trial_coloring(g, s))]
                assert outcomes[0] == outcomes[1], (seed, budget)
                exhausted = outcomes[0][0][0] is RandomnessExhausted
                assert exhausted == (budget < need)

    def test_bandwidth_error_names_the_same_sender(self):
        g = graph("gnp-sparse", 40, 2)
        sites = []
        for run in (
                lambda: SyncEngine(g, lambda _v: NodeTrialColoring(),
                                   source=IndependentSource(seed=2),
                                   model=CONGEST, bandwidth_bits=24).run(),
                lambda: ArrayEngine(g, TrialColoring(),
                                    source=IndependentSource(seed=2),
                                    model=CONGEST, bandwidth_bits=24).run()):
            with pytest.raises(BandwidthExceeded) as info:
                run()
            sites.append(error_site(info.value))
        assert sites[0] == sites[1]

    def test_needs_a_source(self, path9):
        with pytest.raises(ModelViolation):
            ArrayEngine(path9, TrialColoring(), model=CONGEST).run()


class TestColorReduceCV:
    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_parity_sweep(self, family):
        for n in (1, 2, 3, 5, 17, 100):
            for seed in range(3):
                if family == "cycle" and n < 3:
                    continue
                g = graph(family, n, seed)
                ref = oracle_three_colors(g)
                arr = reduce_to_three_colors(g)
                assert_identical(ref, arr)
                assert is_proper_coloring(g, arr.outputs, 3)

    @pytest.mark.parametrize("uids", WIDE_UIDS)
    @pytest.mark.parametrize("topology", [nx.path_graph, nx.cycle_graph])
    def test_wide_uids(self, topology, uids):
        g = DistributedGraph(topology(6), uids=uids)
        arr = reduce_to_three_colors(g)
        assert_identical(oracle_three_colors(g), arr)
        assert is_proper_coloring(g, arr.outputs, 3)
        assert arr.report.max_message_bits > 64

    @pytest.mark.parametrize("uids", [[5, 3, 9, 1, 0], [-3, 7, -1, 2, 0],
                                      [0, 2**70, -2**65, 4, 8]])
    def test_zero_and_negative_uids(self, uids):
        # UID 0 on a node without a successor (the path's end, or an
        # isolated node) shrinks against an imaginary successor colored 1.
        isolated = nx.path_graph(4)
        isolated.add_node(4)
        for topology in (nx.path_graph(5), nx.cycle_graph(5), isolated):
            g = DistributedGraph(topology, uids=uids)
            arr = reduce_to_three_colors(g)
            assert_identical(oracle_three_colors(g), arr)
            assert is_proper_coloring(g, arr.outputs, 3)

    def test_refuses_degree_three(self):
        g = graph("tree", 20, 1)
        assert g.max_degree() > 2
        for run in (
                lambda: SyncEngine(g, lambda _v: NodeColorReduceCV()).run(),
                lambda: ArrayEngine(g, ColorReduceCV()).run()):
            with pytest.raises(ConfigurationError, match="max degree 2"):
                run()


class TestSinklessFixup:
    @pytest.mark.parametrize("family, sizes", [
        ("regular-3", (30, 90)),
        # Min degree 3, irregular: cliques joined by extra edges.
        ("cliques", (24, 40)),
        # Degrees below 3 too: unconstrained nodes never flip.
        ("lopsided", (13, 32)),
    ])
    def test_parity_sweep(self, family, sizes):
        for n in sizes:
            for seed in SEEDS:
                g = graph(family, n, seed)
                ref = oracle_fixup(g, IndependentSource(seed=seed))
                orientation, arr = randomized_orientation_engine(
                    g, IndependentSource(seed=seed))
                assert_identical(ref, arr)
                assert is_sinkless(g, orientation)

    def test_irregular_graph_is_min_degree_three(self):
        degrees = graph("cliques", 24, 0).csr.degrees
        assert degrees.min() >= 3 and degrees.max() > degrees.min()

    @pytest.mark.parametrize("min_degree, horizon", [(3, 0), (3, 1), (2, 7),
                                                     (4, 12)])
    def test_knobs(self, min_degree, horizon):
        g = graph("gnp-dense", 30, 3)
        ref = oracle_fixup(g, IndependentSource(seed=3), min_degree, horizon)
        arr = fixup(g, IndependentSource(seed=3), min_degree=min_degree,
                    horizon=horizon)
        assert_identical(ref, arr)

    @pytest.mark.parametrize("family", ["regular-3", "cliques"])
    def test_budget_exhaustion(self, family):
        for seed in range(3):
            g = graph(family, 30, seed)
            need = fixup(g, IndependentSource(seed=seed)).report \
                .randomness_bits
            for budget in (0, 1, 7, need // 3, need // 2, need - 1, need):
                outcomes = [run_outcome(
                    run, IndependentSource(seed=seed, bit_budget=budget))
                    for run in (lambda s: oracle_fixup(g, s),
                                lambda s: fixup(g, s))]
                assert outcomes[0] == outcomes[1], (seed, budget)
                exhausted = outcomes[0][0][0] is RandomnessExhausted
                assert exhausted == (budget < need)

    def test_needs_a_source(self, cycle12):
        for run in (
                lambda: SyncEngine(cycle12, lambda _v: NodeSinklessFixup()).run(),
                lambda: ArrayEngine(cycle12, SinklessFixupProgram()).run()):
            with pytest.raises(ModelViolation):
                run()


@pytest.mark.parametrize("program", [TrialColoring, ColorReduceCV,
                                     SinklessFixupProgram])
def test_fault_plans_are_refused(program, cycle12):
    # None of the three programs models lost or cut messages.
    plan = RoundFaultPlan(seed=1, crash=0.2, loss=0.2)
    with pytest.raises(ConfigurationError):
        ArrayEngine(cycle12, program(), source=IndependentSource(seed=1),
                    model=CONGEST, faults=plan).run()


class TestOneEngine:
    def test_entry_points_are_array_runs(self, monkeypatch, gnp60, cycle12):
        runs = []

        def spy(self, _real=ArrayEngine.run):
            runs.append(type(self.program).__name__)
            return _real(self)
        monkeypatch.setattr(ArrayEngine, "run", spy)
        trial_coloring(gnp60, IndependentSource(seed=1))
        reduce_to_three_colors(cycle12)
        randomized_orientation_engine(gnp60, IndependentSource(seed=1))
        assert runs == ["TrialColoring", "ColorReduceCV",
                        "SinklessFixupProgram"]

    def test_src_has_no_per_node_engine(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        gone = {"FastEngine", "NodeContext", "NodeProgram"}
        assert not (src / "sim" / "node.py").exists()
        assert not (src / "sim" / "batch" / "fast_engine.py").exists()
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    assert node.name not in gone, path
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    assert not names & gone, path
                    assert not (node.module or "").endswith(
                        ("fast_engine", "sim.node")), path
