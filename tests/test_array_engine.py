"""ArrayEngine must be observationally identical to the per-node oracle.

The array engine replaces per-node Python dispatch with whole-round
numpy passes, and it is only allowed to be *faster*: for every program
pair (per-node program from ``helpers`` on the reference SyncEngine,
array program on ArrayEngine), graph family, size, seed, and model, the
outputs and the full cost report — rounds, messages, total/max bits,
randomness bits — must match bit for bit. The property-style sweep
below runs the cross product (family x size x seed) for Luby MIS,
FloodMin, and BFS-forest, repeats the three on array-built graphs large
enough for the jagged-diagonal column fold (degree-regular, where the
layout keeps node order, and irregular, where it sorts the rows), then
the engine-semantics cases (lying about n, uniformity, bandwidth, CSR
reuse), that every entry point and task runs ArrayEngine — under fault
plans and with wide UIDs too — and equals the oracle, a hypothesis
sweep of fault plans, budgets and UID widths against the oracle, budget
exhaustion, the color trials, Cole–Vishkin reduction and sinkless
fix-up against their per-node twins, and the bulk sampler the array
programs draw from.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import networkx as nx
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FAMILY_NAMES,
    BFSTree,
    FloodMin,
    LubyMIS,
    assert_like_per_bit,
    count_frontier_calls,
    SyncEngine,
    crashes,
    csr_graph,
    int_message_bits,
    nx_copy,
    oracle_bfs_forest,
    oracle_flood_min,
    oracle_luby_mis,
    source_ledger,
    sparse_graphs,
)
from repro.core.mis import ArrayLubyMIS, is_valid_mis, luby_mis
from repro.errors import (
    BandwidthExceeded,
    ConfigurationError,
    ModelViolation,
    RandomnessExhausted,
)
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim import CONGEST, LOCAL, ArrayEngine
from repro.sim.batch import (
    CSRGraph,
    RoundFaultPlan,
    TrialSpec,
    bfs_forest_trial,
    flood_min_trial,
    grid,
    luby_mis_trial,
    run_trials,
)
from repro.sim.batch.array import (
    ArrayContext,
    ArrayProgram,
    fast_int_message_bits,
    segment_reduce,
    tuple_message_bits,
)
from repro.sim.graph import DistributedGraph
from repro.sim.messages import message_bits
from repro.sim.primitives import (
    ArrayBFSForest,
    ArrayFloodMin,
    build_bfs_forest,
    flood_min,
)

#: The parity grid: every named family, two sizes, five seeds (the
#: acceptance bar asks for >= 3 families x >= 5 seeds).
PARITY_SIZES = (13, 32)
PARITY_SEEDS = tuple(range(5))


def assert_identical(ref, arr):
    assert arr.outputs == ref.outputs
    assert dataclasses.asdict(arr.report) == dataclasses.asdict(ref.report)


def parity_case(family, n, seed, node_factory, array_program, model,
                source_seed=None, **kwargs):
    g = assign(make(family, n, seed=seed), "random", seed=seed)
    src1 = IndependentSource(seed=source_seed) if source_seed is not None else None
    src2 = IndependentSource(seed=source_seed) if source_seed is not None else None
    ref = SyncEngine(g, node_factory, source=src1, model=model, **kwargs).run()
    arr = ArrayEngine(g, array_program, source=src2, model=model, **kwargs).run()
    assert_identical(ref, arr)
    return g, arr


@pytest.mark.parametrize("family", FAMILY_NAMES)
class TestParitySweep:
    """outputs and RunReports bit-identical across (family x size x seed)."""

    def test_luby_mis(self, family):
        for n in PARITY_SIZES:
            for seed in PARITY_SEEDS:
                g, arr = parity_case(
                    family, n, seed, lambda _v: LubyMIS(), ArrayLubyMIS(),
                    CONGEST, source_seed=100 + seed)
                assert is_valid_mis(g, arr.outputs)
                assert all(isinstance(o, bool) for o in arr.outputs.values())

    def test_flood_min(self, family):
        for n in PARITY_SIZES:
            for seed in PARITY_SEEDS:
                radius = 1 + seed  # sweep radii along with seeds
                parity_case(family, n, seed, lambda _v: FloodMin(radius),
                            ArrayFloodMin(radius), CONGEST)

    def test_bfs_forest(self, family):
        for n in PARITY_SIZES:
            for seed in PARITY_SEEDS:
                roots = {0, seed + 1}
                parity_case(family, n, seed, lambda _v: BFSTree(roots, n),
                            ArrayBFSForest(roots, n), CONGEST,
                            max_rounds=n + 2)


def ring_lattice(n, reach, uid_seed):
    """Circulant CSR (v±1 .. v±reach mod n) built as arrays, random
    UIDs: ``reach=1`` is the cycle, ``reach=2`` the degree-4 lattice."""
    span = np.arange(1, reach + 1, dtype=np.int64)
    steps = np.concatenate([-span[::-1], span])
    indices = ((np.arange(n, dtype=np.int64)[:, None] + steps) % n).ravel()
    offsets = np.arange(n + 1, dtype=np.int64) * steps.size
    uids = np.random.default_rng(uid_seed).permutation(n) + 1
    return CSRGraph(offsets, indices, tuple(uids.tolist()))


def engine_parity(csr):
    """FloodMin, BFS forest and Luby MIS on ``csr``, array vs the oracle
    on the graph of the same edges and UIDs."""
    roots = {0, csr.n // 3, csr.n // 2}
    g = csr_graph(csr)
    assert_identical(oracle_flood_min(g, 12),
                     flood_min(None, 12, engine="array", csr=csr))
    assert_identical(oracle_bfs_forest(g, roots, 40),
                     build_bfs_forest(None, roots, 40, engine="array",
                                      csr=csr))
    assert_identical(oracle_luby_mis(g, IndependentSource(seed=3)),
                     luby_mis(None, IndependentSource(seed=3),
                              engine="array", csr=csr))


class TestColumnFoldParity:
    """Parity on graphs whose JDS columns hold at least FOLD_MIN_ROWS
    rows, so the column fold (not only the reduceat tail) runs. The BFS
    wavefronts there are sparse, so its adoption takes the frontier
    branch; each test asserts that it did."""

    @pytest.mark.parametrize("n, reach", [(5000, 1), (3000, 2)],
                             ids=["cycle-5000", "ring4-3000"])
    def test_regular_keeps_node_order(self, n, reach, monkeypatch):
        csr = ring_lattice(n, reach, uid_seed=n)
        ctx = ArrayContext(csr, n, None, CONGEST, 64, False)
        assert ctx._order is None and len(ctx._columns) == 2 * reach
        calls = count_frontier_calls(monkeypatch)
        engine_parity(csr)
        assert calls[0]

    def test_irregular_sorts_rows(self, monkeypatch):
        csr = assign(make("gnp-sparse", 2500, seed=4), "random", seed=4).csr
        ctx = ArrayContext(csr, csr.n, None, CONGEST, 64, False)
        assert ctx._order is not None and ctx._tail_starts.size
        calls = count_frontier_calls(monkeypatch)
        engine_parity(csr)
        assert calls[0]
        # The CSR-order edge API maps through the lazy permutation.
        values = np.random.default_rng(4).integers(0, 1000, size=csr.n)
        np.testing.assert_array_equal(ctx.neighbor_min(ctx.gather(values)),
                                      ctx.gather_neighbor_min(values))


class TestParitySemantics:
    def test_local_model(self, gnp60):
        ref = SyncEngine(gnp60, lambda _v: FloodMin(4), model=LOCAL).run()
        arr = ArrayEngine(gnp60, ArrayFloodMin(4), model=LOCAL).run()
        assert_identical(ref, arr)

    def test_radius_zero_finishes_in_init(self, cycle12):
        ref = SyncEngine(cycle12, lambda _v: FloodMin(0)).run()
        arr = ArrayEngine(cycle12, ArrayFloodMin(0)).run()
        assert_identical(ref, arr)
        assert arr.report.rounds == 0 and arr.report.messages == 0

    def test_empty_root_set(self, path9):
        ref = SyncEngine(path9, lambda _v: BFSTree(set(), 3),
                         model=CONGEST, max_rounds=5).run()
        arr = ArrayEngine(path9, ArrayBFSForest(set(), 3),
                          model=CONGEST, max_rounds=5).run()
        assert_identical(ref, arr)
        assert all(out is None for out in arr.outputs.values())

    def test_lie_about_n(self, gnp60):
        ref = SyncEngine(gnp60, lambda _v: LubyMIS(),
                         source=IndependentSource(seed=5), model=CONGEST,
                         n_override=4 * gnp60.n).run()
        arr = ArrayEngine(gnp60, ArrayLubyMIS(),
                          source=IndependentSource(seed=5), model=CONGEST,
                          n_override=4 * gnp60.n).run()
        assert_identical(ref, arr)

    def test_n_override_below_n_rejected(self, gnp60):
        with pytest.raises(ConfigurationError):
            ArrayEngine(gnp60, ArrayFloodMin(2), n_override=gnp60.n - 1)

    def test_uniform_denies_n(self, path9):
        class ReadN(ArrayProgram):
            def init(self, ctx):
                ctx.n  # must raise
                ctx.finish(np.arange(ctx.size), [None] * ctx.size)

        with pytest.raises(ModelViolation):
            ArrayEngine(path9, ReadN(), uniform=True).run()

    def test_randomness_denied_when_deterministic(self, path9):
        class Draw(ArrayProgram):
            def init(self, ctx):
                ctx.rand_uniform_each(np.arange(ctx.size), 4)

        with pytest.raises(ModelViolation):
            ArrayEngine(path9, Draw()).run()

    def test_bandwidth_enforced(self, path9):
        class BigBroadcast(ArrayProgram):
            def init(self, ctx):
                everyone = np.arange(ctx.size)
                return ctx.broadcast(everyone,
                                     np.full(ctx.size, 10_000, np.int64))

        with pytest.raises(BandwidthExceeded):
            ArrayEngine(path9, BigBroadcast(), model=CONGEST).run()

    def test_flood_isolated_largest_uids_send_nothing(self):
        # Three isolated nodes hold the largest UIDs (42-bit payloads):
        # they broadcast to no one, so the max stays a path UID's size.
        nx_graph = nx.path_graph(6)
        nx_graph.add_nodes_from(range(6, 9))
        g = DistributedGraph(nx_graph, uids=[4, 2, 6, 1, 5, 3]
                             + [2**40, 2**40 + 1, 2**40 + 2])
        ref = SyncEngine(g, lambda _v: FloodMin(3), model=CONGEST).run()
        arr = ArrayEngine(g, ArrayFloodMin(3), model=CONGEST).run()
        assert_identical(ref, arr)
        assert arr.report.max_message_bits == message_bits(6)

    def test_flood_congest_overflow_message(self):
        # Node 7's UID 8 needs 5 bits; the text is the one the general
        # broadcast path has always raised, and the oracle's too.
        g = assign(make("path", 8), "sequential")
        want = "node 7 -> 6: message of 5 bits exceeds CONGEST limit of 4 bits"
        for run in (
                lambda: SyncEngine(g, lambda _v: FloodMin(3), model=CONGEST,
                                   bandwidth_bits=4).run(),
                lambda: ArrayEngine(g, ArrayFloodMin(3), model=CONGEST,
                                    bandwidth_bits=4).run()):
            with pytest.raises(BandwidthExceeded) as info:
                run()
            assert str(info.value) == want

    def test_max_rounds_guard(self, path9):
        class Forever(ArrayProgram):
            def init(self, ctx):
                return None

            def step(self, ctx, round_index):
                return None

        with pytest.raises(ModelViolation):
            ArrayEngine(path9, Forever(), max_rounds=10).run()

    def test_reusable_csr_across_runs(self, gnp60):
        csr = gnp60.csr
        first = ArrayEngine(gnp60, ArrayFloodMin(4), csr=csr).run()
        second = ArrayEngine(gnp60, ArrayFloodMin(4), csr=csr).run()
        assert first.outputs == second.outputs
        ref = SyncEngine(gnp60, lambda _v: FloodMin(4)).run()
        assert_identical(ref, second)

    def test_csr_from_different_graph_rejected(self):
        g1 = assign(make("gnp-sparse", 30, seed=1), "random", seed=1)
        g2 = assign(make("gnp-sparse", 30, seed=2), "random", seed=2)
        with pytest.raises(ConfigurationError):
            ArrayEngine(g1, ArrayFloodMin(1), csr=g2.csr)


@pytest.fixture
def engine_runs(monkeypatch):
    """Spy on ArrayEngine.run: one name per run, in call order."""
    runs = []

    def spy(self, _real=ArrayEngine.run):
        runs.append("ArrayEngine")
        return _real(self)
    monkeypatch.setattr(ArrayEngine, "run", spy)
    return runs


def patch_onto_oracle(monkeypatch):
    """Patch the three primitives onto the per-node oracle (SyncEngine,
    which neither spy sees) where the tasks look them up; returns the
    list the names of the oracle runs go to."""
    import repro.core.mis as mis_module
    import repro.sim.primitives as primitives_module

    runs = []

    def patch(module, name, oracle):
        def run(*args, **kwargs):
            runs.append(name)
            return oracle(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    patch(mis_module, "luby_mis", oracle_luby_mis)
    patch(primitives_module, "flood_min", oracle_flood_min)
    patch(primitives_module, "build_bfs_forest", oracle_bfs_forest)
    return runs


#: Each primitive beside its oracle, same arguments.
PRIMITIVES = {
    "luby_mis": (lambda g, **kw: luby_mis(g, IndependentSource(seed=2), **kw),
                 lambda g, **kw: oracle_luby_mis(g, IndependentSource(seed=2),
                                                 **kw)),
    "flood_min": (lambda g, **kw: flood_min(g, 3, **kw),
                  lambda g, **kw: oracle_flood_min(g, 3, **kw)),
    "build_bfs_forest": (lambda g, **kw: build_bfs_forest(g, {0}, **kw),
                         lambda g, **kw: oracle_bfs_forest(g, {0}, **kw)),
}

#: Trial specs across the fault knobs: clean, every rate unset, each
#: rate alone, and all three from round 2 on.
FAULT_SPECS = [
    TrialSpec.of("cycle", 12, 0),
    TrialSpec.of("cycle", 12, 0, fault_seed=4),
    TrialSpec.of("cycle", 12, 0, fault_crash=0.2),
    TrialSpec.of("gnp-sparse", 24, 1, fault_loss=0.3),
    TrialSpec.of("tree", 24, 2, fault_churn=0.3),
    TrialSpec.of("grid", 25, 3, fault_crash=0.1, fault_loss=0.1,
                 fault_churn=0.1, fault_start=2),
]


class TestEngineKnobs:
    """Every entry point and task runs ArrayEngine — under fault plans
    and with wide UIDs too — and equals the per-node oracle; the
    ``engine="array"`` pin still runs and anything else is refused."""

    def test_luby_mis_knob(self, gnp60):
        ref = oracle_luby_mis(gnp60, IndependentSource(seed=3))
        arr = luby_mis(gnp60, IndependentSource(seed=3), engine="array")
        assert_identical(ref, arr)
        with pytest.raises(ConfigurationError):
            luby_mis(gnp60, IndependentSource(seed=3), engine="warp")

    def test_flood_min_knob(self, cycle12):
        ref = oracle_flood_min(cycle12, 6)
        arr = flood_min(cycle12, 6, engine="array")
        assert_identical(ref, arr)
        with pytest.raises(ConfigurationError):
            flood_min(cycle12, 6, engine="warp")

    def test_bfs_forest_knob(self, gnp60):
        ref = oracle_bfs_forest(gnp60, {0, 7})
        arr = build_bfs_forest(gnp60, {0, 7}, engine="array")
        assert_identical(ref, arr)
        with pytest.raises(ConfigurationError):
            build_bfs_forest(gnp60, {0}, engine="warp")

    def test_tasks_run_array_and_equal_the_oracle(self, monkeypatch,
                                                  engine_runs):
        # The tasks take no engine param; every run is an ArrayEngine
        # run, and the same sweep with the primitives patched onto the
        # oracle stores the same records. One in-process worker, so
        # the spies and the patches see every run.
        tasks = (luby_mis_trial, flood_min_trial, bfs_forest_trial)
        specs = grid(["gnp-sparse", "tree"], [24], range(3))
        arr = [run_trials(task, specs, workers=1) for task in tasks]
        assert engine_runs == ["ArrayEngine"] * (len(tasks) * len(specs))
        engine_runs.clear()
        oracle_runs = patch_onto_oracle(monkeypatch)
        ref = [run_trials(task, specs, workers=1) for task in tasks]
        assert engine_runs == []
        assert len(oracle_runs) == len(tasks) * len(specs)
        assert ([[(r.ok, r.data) for r in rs] for rs in ref]
                == [[(r.ok, r.data) for r in rs] for rs in arr])
        for task in tasks:
            with pytest.raises(ConfigurationError, match="engine='warp'"):
                task(grid(["cycle"], [12], [0], engine="warp")[0])

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_every_run_is_an_array_run(self, cycle12, engine_runs, name):
        # No plan, an all-zero plan, an active plan and an active plan
        # under the engine="array" pin: four ArrayEngine runs, each the
        # oracle's run; the active plan changes the run.
        run, oracle = PRIMITIVES[name]
        active = RoundFaultPlan(seed=1, crash=0.2, loss=0.3)
        results = []
        for kwargs in ({}, {"faults": RoundFaultPlan(seed=1)},
                       {"faults": active},
                       {"engine": "array", "faults": active}):
            results.append(run(cycle12, **kwargs))
            kwargs.pop("engine", None)
            assert_identical(oracle(cycle12, **kwargs), results[-1])
        assert engine_runs == ["ArrayEngine"] * 4
        assert results[2] != results[0]
        with pytest.raises(ConfigurationError,
                           match="unknown engine 'fast'"):
            run(cycle12, engine="fast")

    @pytest.mark.parametrize("top", [2**62, 2**63 - 1, 2**70])
    def test_wide_uids_run_on_array_engine(self, engine_runs, top):
        # UIDs past 2**62 (2**63 - 1 is also the BFS no-claim sentinel),
        # or past int64, run on ArrayEngine as ranks: outputs carry the
        # real UIDs and bits measure them.
        g = DistributedGraph(nx.path_graph(5), uids=[3, 1, top, 7, 2])
        result = flood_min(g, 4, model=LOCAL)
        assert result.outputs == {v: 1 for v in range(5)}
        assert_identical(oracle_flood_min(g, 4, model=LOCAL), result)
        wide_root = build_bfs_forest(g, {2}, engine="array")
        assert wide_root.outputs[0] == (top, 1, 2)
        assert_identical(oracle_bfs_forest(g, {2}), wide_root)
        assert_identical(oracle_luby_mis(g, IndependentSource(seed=2)),
                         luby_mis(g, IndependentSource(seed=2)))
        assert engine_runs == ["ArrayEngine"] * 3
        assert result.report.max_message_bits == message_bits(top)

    def test_tasks_run_wide_uids_on_array_engine(self, monkeypatch,
                                                 engine_runs):
        # A sweep over a hand-built wide-UID graph needs no engine knob.
        import repro.sim.batch.tasks as batch_tasks

        g = DistributedGraph(nx.path_graph(5), uids=[3, 1, 2**62, 7, 2])
        monkeypatch.setattr(batch_tasks, "trial_graph",
                            lambda family, n, seed, ids: g)
        spec = TrialSpec.of("path", 5, 0, model=LOCAL, radius=4)
        result = run_trials(flood_min_trial, [spec], workers=1)[0]
        assert result.ok
        assert result.data == batch_tasks._report_data(
            oracle_flood_min(g, 4, model=LOCAL))
        assert engine_runs == ["ArrayEngine"]

    def test_tasks_run_faults_on_array_engine(self, monkeypatch,
                                              engine_runs):
        tasks = (luby_mis_trial, flood_min_trial, bfs_forest_trial)
        arr = [[task(spec) for spec in FAULT_SPECS] for task in tasks]
        assert engine_runs == ["ArrayEngine"] * (len(tasks)
                                                 * len(FAULT_SPECS))
        oracle_runs = patch_onto_oracle(monkeypatch)
        ref = [[task(spec) for spec in FAULT_SPECS] for task in tasks]
        assert len(oracle_runs) == len(tasks) * len(FAULT_SPECS)
        assert ([[(r.ok, r.data) for r in rs] for rs in ref]
                == [[(r.ok, r.data) for r in rs] for rs in arr])
        # The faults bite: a faulty spec's records differ from the
        # clean spec's on the same graph.
        assert all(rs[2].data != rs[0].data for rs in arr)

    @pytest.mark.parametrize("family", ["path", "cliques", "gnp-sparse",
                                        "lopsided"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_budget_exhaustion_parity(self, family, n):
        # Under a bit budget both engines stop at the same draw: the
        # same outcome, error text and bits consumed, for budgets from
        # far too small to just enough.
        for seed in range(4):
            g = assign(make(family, n, seed=seed), "random", seed=seed)
            need = luby_mis(g, IndependentSource(seed=seed)).report \
                .randomness_bits
            for budget in (1, 7, need // 3, need // 2, need - 1, need):
                outcomes = []
                for run in (oracle_luby_mis, luby_mis):
                    source = IndependentSource(seed=seed, bit_budget=budget)
                    try:
                        result = run(g, source)
                        outcome = (result.outputs,
                                   dataclasses.asdict(result.report))
                    except RandomnessExhausted as exc:
                        outcome = str(exc)
                    outcomes.append((outcome, source.bits_consumed))
                assert outcomes[0] == outcomes[1], (seed, budget)
                assert isinstance(outcomes[0][0], str) == (budget < need)

    def test_luby_trial_rejects_non_congest_model(self):
        with pytest.raises(ConfigurationError, match="CONGEST"):
            luby_mis_trial(grid(["cycle"], [12], [0], model=LOCAL)[0])


#: A bandwidth no run here reaches: at n <= 24 CONGEST's default limit
#: is below one wide UID's width, and the bandwidth check has its own
#: tests above.
WIDE_BANDWIDTH = 1 << 12

#: UIDs from three ranges: machine words, [2**62, 2**63) (int64 but
#: past the sentinel headroom) and past 2**64 (no int64 at all).
UIDS = st.one_of(st.integers(1, 10**6),
                 st.integers(2**62, 2**62 + 10**6),
                 st.integers(2**64 + 1, 2**64 + 10**6))
RATES = st.one_of(st.just(0.0), st.floats(0.0, 0.5))


@st.composite
def fault_cases(draw):
    """A graph (a forest with chords and trailing isolated nodes, or a
    path) of at most 24 nodes with UIDs of any width, and a fault plan."""
    if draw(st.booleans()):  # up to 21 nodes plus 3 trailing isolated
        topology = nx_copy(draw(sparse_graphs(max_nodes=21)))
    else:
        topology = nx.path_graph(draw(st.integers(1, 24)))
    n = topology.number_of_nodes()
    uids = draw(st.lists(UIDS, min_size=n, max_size=n, unique=True))
    plan = RoundFaultPlan(seed=draw(st.integers(0, 99)), crash=draw(RATES),
                          loss=draw(RATES), churn=draw(RATES),
                          start_round=draw(st.integers(1, 3)))
    return DistributedGraph(topology, uids=uids), plan


def run_outcome(run, source):
    """Outputs and full report, or the error's type and text; then the
    bits the source consumed."""
    try:
        result = run()
        outcome = (result.outputs, dataclasses.asdict(result.report))
    except (RandomnessExhausted, ModelViolation) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, None if source is None else source.bits_consumed


class TestFaultParity:
    """ArrayEngine under random fault plans, budgets and UID widths
    equals the per-node programs on the oracle: outputs, full report,
    bits consumed and any exhaustion message."""

    @settings(max_examples=60, deadline=None)
    @given(case=fault_cases(), seed=st.integers(0, 99),
           budget=st.none() | st.integers(0, 300))
    def test_luby_mis(self, case, seed, budget):
        g, plan = case
        sources = [IndependentSource(seed=seed, bit_budget=budget)
                   for _ in range(2)]
        arr = run_outcome(lambda: ArrayEngine(
            g, ArrayLubyMIS(), source=sources[0], model=CONGEST,
            bandwidth_bits=WIDE_BANDWIDTH, faults=plan).run(), sources[0])
        ref = run_outcome(lambda: oracle_luby_mis(
            g, sources[1], faults=plan, bandwidth_bits=WIDE_BANDWIDTH),
            sources[1])
        assert arr == ref

    @settings(max_examples=60, deadline=None)
    @given(case=fault_cases(), radius=st.integers(0, 6))
    def test_flood_min(self, case, radius):
        g, plan = case
        arr = run_outcome(lambda: ArrayEngine(
            g, ArrayFloodMin(radius), model=CONGEST,
            bandwidth_bits=WIDE_BANDWIDTH, faults=plan).run(), None)
        ref = run_outcome(lambda: oracle_flood_min(
            g, radius, faults=plan, bandwidth_bits=WIDE_BANDWIDTH), None)
        assert arr == ref

    @settings(max_examples=60, deadline=None)
    @given(case=fault_cases(), data=st.data())
    def test_bfs_forest(self, case, data):
        g, plan = case
        roots = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
        bound = data.draw(st.integers(1, g.n + 2))
        arr = run_outcome(lambda: ArrayEngine(
            g, ArrayBFSForest(roots, bound), model=CONGEST,
            max_rounds=bound + 2, bandwidth_bits=WIDE_BANDWIDTH,
            faults=plan).run(), None)
        ref = run_outcome(lambda: oracle_bfs_forest(
            g, roots, bound, faults=plan, bandwidth_bits=WIDE_BANDWIDTH),
            None)
        assert arr == ref

    def test_crash_semantics_pinned(self):
        # One hand-checked plan, so the sweep above cannot pass on two
        # engines that share a misreading: a node crashing in the draw
        # round still drew its priority, its output stays None, and the
        # survivors still decide.
        g = assign(make("cycle", 12), "random", seed=3)
        plan = RoundFaultPlan(seed=7, crash=0.3)
        crashed = [v for v in range(12) if crashes(plan, 1, v)]
        assert crashed  # seed 7 crashes someone in round 1
        source = IndependentSource(seed=2)
        result = luby_mis(g, source, faults=plan)
        ledger = source_ledger(source)
        for v in crashed:
            assert result.outputs[v] is None
            assert ledger[v][0]  # the round-1 draw was metered
        assert all(isinstance(result.outputs[v], bool) for v in range(12)
                   if not any(crashes(plan, r, v) for r in range(1, 40)))
        assert_identical(oracle_luby_mis(g, IndependentSource(seed=2),
                                         faults=plan), result)


class TestArrayHelpers:
    def test_int_message_bits_matches_encoder(self):
        values = [0, 1, 2, 3, 7, 8, 255, 256, 2**31 - 1, 2**31, 2**52 + 1]
        expected = [message_bits(v) for v in values]
        for measure in (fast_int_message_bits, int_message_bits):
            assert measure(np.array(values)).tolist() == expected
            with pytest.raises(ConfigurationError):
                measure(np.array([-1]))

    def test_tuple_message_bits_matches_encoder(self):
        assert tuple_message_bits(message_bits(5), message_bits(0)) == \
            message_bits((5, 0))
        assert tuple_message_bits(
            message_bits("p"), message_bits(77), message_bits(12)
        ) == message_bits(("p", 77, 12))

    def test_segment_reduce_empty_and_trailing_segments(self):
        # Segments: [5, 3], [], [2], [] — incl. empty trailing segment.
        offsets = np.array([0, 2, 2, 3, 3])
        values = np.array([5, 3, 2])
        assert segment_reduce(values, offsets, np.minimum,
                              np.iinfo(np.int64).max).tolist() == \
            [3, np.iinfo(np.int64).max, 2, np.iinfo(np.int64).max]
        assert segment_reduce(values, offsets, np.add, 0).tolist() == \
            [8, 0, 2, 0]

    def test_wide_uids_become_ranks(self):
        # Up to 2**62 - 1 the context keeps the CSR's UID column; one UID
        # past it makes ctx.uids the dense order-preserving ranks, while
        # payload widths and outputs stay the real UIDs'.
        g = DistributedGraph(nx.path_graph(3), uids=[1, 2, 2**62 - 1])
        ctx = ArrayContext(g.csr, 3, None, CONGEST, 64, False)
        assert ctx.uids is g.csr.uid_array
        uids = [5, 2**64 + 3, 2**62, 1]
        g = DistributedGraph(nx.path_graph(4), uids=uids)
        ctx = ArrayContext(g.csr, 4, None, CONGEST, 64, False)
        assert ctx.uids.tolist() == [1, 3, 2, 0]
        widths = [message_bits(uid) for uid in uids]
        assert ctx.uid_message_bits.tolist() == widths
        assert ctx.uid_bits(ctx.uids).tolist() == widths
        assert ctx.uid_values(ctx.uids) == uids
        ref = SyncEngine(g, lambda _v: FloodMin(2)).run()
        arr = ArrayEngine(g, ArrayFloodMin(2)).run()
        assert_identical(ref, arr)
        assert arr.outputs == {0: 5, 1: 1, 2: 1, 3: 1}
        # A payload past 255 bits, wider than a standing width holds.
        g = DistributedGraph(nx.path_graph(4), uids=[2**300, 7, 2**299, 9])
        arr = ArrayEngine(g, ArrayFloodMin(3)).run()
        assert_identical(oracle_flood_min(g, 3, model=LOCAL), arr)
        assert arr.report.max_message_bits == message_bits(2**300)


class TestUniformIntEach:
    """The bulk per-node sampler reads like per-bit ``uniform_int``."""

    @staticmethod
    def assert_matches_per_node(nodes, bound, offsets, seed=42,
                                prior_reads=(), bit_budget=None,
                                source=IndependentSource):
        """uniform_int_each, and per-node uniform_int calls, each on a
        fresh source against the per-bit reference: values, bits used,
        totals, every node's ledger intervals, and the exception text if
        the batch raises. Returns the error text, if any."""
        if source is IndependentSource:
            source = partial(IndependentSource, seed=seed,
                             bit_budget=bit_budget)

        def prior(reader):
            for node, start, count in prior_reads:
                reader.bits_block(node, count, start)

        def bulk(reader):
            prior(reader)
            return reader.uniform_int_each(nodes, bound, np.array(offsets))

        def scalar(reader):
            prior(reader)
            bounds = bound if np.ndim(bound) else [bound] * len(nodes)
            return [reader.uniform_int(node, int(b), int(offset))
                    for node, b, offset in zip(nodes, bounds, offsets)]

        error, _ = assert_like_per_bit(source, bulk)
        assert assert_like_per_bit(source, scalar)[0] == error
        return None if error is None else error[1]

    def test_matches_uniform_int(self):
        for bound in (1, 2, 3, 10, 1000, 2**20 + 7):
            nodes = list(range(8))
            self.assert_matches_per_node(nodes, bound, [3 * v for v in nodes])

    def test_block_straddling_cursors(self):
        # Width 34: every cursor in 478..511 crosses the 512-bit block end
        # on some attempt, most of them on the first.
        nodes = list(range(34))
        self.assert_matches_per_node(nodes, 2**33 + 5,
                                     [478 + v for v in nodes])

    def test_rejection_chains(self):
        # bound 2^k + 1 rejects almost half of all windows.
        nodes = list(range(64))
        for k in (1, 3, 9, 20):
            self.assert_matches_per_node(nodes, 2**k + 1,
                                         [37 * v % 700 for v in nodes])

    def test_wide_bound(self):
        nodes = list(range(40))
        self.assert_matches_per_node(nodes, (10**6) ** 2,
                                     [11 * v for v in nodes])

    def test_tuple_and_string_node_keys(self):
        nodes = [(0, 1), (2, 3), "a", "b", (0, 1)]
        self.assert_matches_per_node(nodes, 1000, [0, 5, 10, 500, 40])

    def test_same_node_twice_in_one_call(self):
        self.assert_matches_per_node([7, 7, 3, 7], 2**17 + 1,
                                     [0, 10, 4, 0])

    def test_rereads_after_scattered_reads_are_free(self):
        nodes = list(range(6))
        prior = [(v, start, 9) for v in nodes for start in (0, 30, 505)]
        self.assert_matches_per_node(nodes, 2**12 + 1, [2, 25, 28, 500, 8, 0],
                                     prior_reads=prior)

    def test_budget_runs_out_mid_batch(self):
        nodes = list(range(20))
        for budget in (1, 37, 150):
            error = self.assert_matches_per_node(
                nodes, 1000, [5 * v for v in nodes], bit_budget=budget)
            assert error is not None and f"{budget} bits" in error

    def test_bound_wider_than_int64(self):
        nodes = list(range(12))
        self.assert_matches_per_node(nodes, 2**70 + 3, [7 * v for v in nodes])
        values, _ = IndependentSource(seed=3).uniform_int_each(
            nodes, 2**70 + 3, [0] * 12)
        assert max(values.tolist()) >= 2**63

    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigurationError):
            IndependentSource(seed=1).uniform_int_each([0], 0, [0])

    def test_per_node_bounds(self):
        # Widths 0 (bound 1) to 63 in one read: each lane folds its own
        # leading bits of the widest lane's window.
        bounds = np.array([1, 2, 3, 1000, 2**20 + 7, 1, 2**40 + 3, 2**62,
                           2**62 + 1, 2**63 - 1, 9, 2], dtype=np.int64)
        nodes = list(range(bounds.size))
        self.assert_matches_per_node(nodes, bounds, [3 * v for v in nodes])
        # Block-straddling cursors and rejection chains, per node.
        self.assert_matches_per_node(nodes, bounds, [478 + v for v in nodes])
        chains = np.array([2**k + 1 for k in range(1, 25)], dtype=np.int64)
        nodes = list(range(chains.size))
        self.assert_matches_per_node(nodes, chains,
                                     [37 * v % 700 for v in nodes])

    def test_per_node_bounds_budget_runs_out_mid_batch(self):
        bounds = np.resize(np.array([1000, 1, 7, 2**33 + 5, 2], np.int64), 20)
        nodes = list(range(20))
        for budget in (1, 37, 150):
            error = self.assert_matches_per_node(
                nodes, bounds, [5 * v for v in nodes], bit_budget=budget)
            assert error is not None and f"{budget} bits" in error

    def test_per_node_bounds_all_one_read_nothing(self):
        source = IndependentSource(seed=1, bit_budget=0)
        values, used = source.uniform_int_each(
            [0, 1, 2], np.ones(3, dtype=np.int64), [0, -4, 7])
        assert values.tolist() == [0, 0, 0] and used.tolist() == [0, 0, 0]
        assert source.bits_consumed == 0

    def test_rejects_bad_per_node_bound_before_reading(self):
        source = IndependentSource(seed=1)
        with pytest.raises(ConfigurationError, match="got -2"):
            source.uniform_int_each([0, 1, 2], np.array([5, -2, 0]),
                                    [0, 0, 0])
        assert source.bits_consumed == 0

    def test_stuck_lane_names_its_own_bound(self):
        from repro.randomness.pooled import PooledBits

        # All-ones pools: bound 2 accepts '1', bound 3 rejects '11'
        # 64 times and gives up.
        ones = partial(PooledBits, {v: [1] * 200 for v in range(3)})
        error = self.assert_matches_per_node(
            [0, 1, 2], np.array([2, 3, 2], dtype=np.int64), [0, 0, 0],
            source=ones)
        assert error == "rejection sampling for bound 3 did not converge"

    def test_bounded_stream_fallback(self):
        from repro.randomness import KWiseSource

        # 64-bit streams. Bound 9 reads 4-bit windows, so a lane that
        # rejects its way to index 64 runs past its stream's end: the
        # call raises there after metering the earlier lanes and the
        # lane's held prefix.
        source = partial(KWiseSource, k=4, num_nodes=8, bits_per_node=64,
                         seed=9)
        for bound, offsets in ((13, [0] * 4), (9, [0, 50, 58, 61]),
                               (np.array([9, 2, 300, 5]), [0, 50, 58, 61])):
            self.assert_matches_per_node(list(range(4)), bound, offsets,
                                         source=source)