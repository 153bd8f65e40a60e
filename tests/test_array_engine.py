"""ArrayEngine must be observationally identical to FastEngine.

The array engine replaces per-node Python dispatch with whole-round
numpy passes, and it is only allowed to be *faster*: for every program
pair (node program on FastEngine, array program on ArrayEngine), graph
family, size, seed, and model, the outputs and the full cost report —
rounds, messages, total/max bits, randomness bits — must match bit for
bit. The property-style sweep below runs the cross product
(family x size x seed) for Luby MIS, FloodMin, and BFS-forest, repeats
the three on array-built graphs large enough for the jagged-diagonal
column fold (degree-regular, where the layout keeps node order, and
irregular, where it sorts the rows), then the engine-semantics cases
(lying about n, uniformity, bandwidth, CSR reuse), the engine each
entry point picks from its fault plan, budget exhaustion, and the bulk
sampler the array programs draw from.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import networkx as nx
import numpy as np
import pytest

from helpers import (
    FAMILY_NAMES,
    assert_like_per_bit,
    count_frontier_calls,
    fast_bfs_forest,
    fast_flood_min,
    fast_luby_mis,
    int_message_bits,
)
from repro.core.mis import ArrayLubyMIS, LubyMIS, is_valid_mis, luby_mis
from repro.errors import (
    BandwidthExceeded,
    ConfigurationError,
    ModelViolation,
    RandomnessExhausted,
)
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim import CONGEST, LOCAL, ArrayEngine, FastEngine
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
    BFSTree,
    FloodMin,
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
    ref = FastEngine(g, node_factory, source=src1, model=model, **kwargs).run()
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
    """FloodMin, BFS forest and Luby MIS, array vs fast, on ``csr``."""
    roots = {0, csr.n // 3, csr.n // 2}
    assert_identical(fast_flood_min(None, 12, csr=csr),
                     flood_min(None, 12, engine="array", csr=csr))
    assert_identical(fast_bfs_forest(None, roots, 40, csr=csr),
                     build_bfs_forest(None, roots, 40, engine="array",
                                      csr=csr))
    assert_identical(fast_luby_mis(None, IndependentSource(seed=3), csr=csr),
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
        ref = FastEngine(gnp60, lambda _v: FloodMin(4), model=LOCAL).run()
        arr = ArrayEngine(gnp60, ArrayFloodMin(4), model=LOCAL).run()
        assert_identical(ref, arr)

    def test_radius_zero_finishes_in_init(self, cycle12):
        ref = FastEngine(cycle12, lambda _v: FloodMin(0)).run()
        arr = ArrayEngine(cycle12, ArrayFloodMin(0)).run()
        assert_identical(ref, arr)
        assert arr.report.rounds == 0 and arr.report.messages == 0

    def test_empty_root_set(self, path9):
        ref = FastEngine(path9, lambda _v: BFSTree(set(), 3),
                         model=CONGEST, max_rounds=5).run()
        arr = ArrayEngine(path9, ArrayBFSForest(set(), 3),
                          model=CONGEST, max_rounds=5).run()
        assert_identical(ref, arr)
        assert all(out is None for out in arr.outputs.values())

    def test_lie_about_n(self, gnp60):
        ref = FastEngine(gnp60, lambda _v: LubyMIS(),
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
        ref = FastEngine(g, lambda _v: FloodMin(3), model=CONGEST).run()
        arr = ArrayEngine(g, ArrayFloodMin(3), model=CONGEST).run()
        assert_identical(ref, arr)
        assert arr.report.max_message_bits == message_bits(6)

    def test_flood_congest_overflow_message(self):
        # Node 7's UID 8 needs 5 bits; the text is the one the general
        # broadcast path has always raised, and FastEngine's too.
        g = assign(make("path", 8), "sequential")
        want = "node 7 -> 6: message of 5 bits exceeds CONGEST limit of 4 bits"
        for run in (
                lambda: FastEngine(g, lambda _v: FloodMin(3), model=CONGEST,
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
        ref = FastEngine(gnp60, lambda _v: FloodMin(4)).run()
        assert_identical(ref, second)

    def test_csr_from_different_graph_rejected(self):
        g1 = assign(make("gnp-sparse", 30, seed=1), "random", seed=1)
        g2 = assign(make("gnp-sparse", 30, seed=2), "random", seed=2)
        with pytest.raises(ConfigurationError):
            ArrayEngine(g1, ArrayFloodMin(1), csr=g2.csr)


@pytest.fixture
def engine_runs(monkeypatch):
    """Spy on FastEngine.run and ArrayEngine.run: the names of the
    engines that ran, in call order."""
    runs = []
    for cls in (FastEngine, ArrayEngine):
        def spy(self, _real=cls.run, _name=cls.__name__):
            runs.append(_name)
            return _real(self)
        monkeypatch.setattr(cls, "run", spy)
    return runs


#: The three primitives that pick their engine from ``faults=``.
PRIMITIVES = {
    "luby_mis": lambda g, **kw: luby_mis(g, IndependentSource(seed=2), **kw),
    "flood_min": lambda g, **kw: flood_min(g, 3, **kw),
    "build_bfs_forest": lambda g, **kw: build_bfs_forest(g, {0}, **kw),
}


class TestEngineKnobs:
    """The engine each entry point picks, and the engine="array" pin."""

    def test_luby_mis_knob(self, gnp60):
        fast = fast_luby_mis(gnp60, IndependentSource(seed=3))
        arr = luby_mis(gnp60, IndependentSource(seed=3), engine="array")
        assert_identical(fast, arr)
        with pytest.raises(ConfigurationError):
            luby_mis(gnp60, IndependentSource(seed=3), engine="warp")

    def test_flood_min_knob(self, cycle12):
        fast = fast_flood_min(cycle12, 6)
        arr = flood_min(cycle12, 6, engine="array")
        assert_identical(fast, arr)
        with pytest.raises(ConfigurationError):
            flood_min(cycle12, 6, engine="warp")

    def test_bfs_forest_knob(self, gnp60):
        fast = fast_bfs_forest(gnp60, {0, 7})
        arr = build_bfs_forest(gnp60, {0, 7}, engine="array")
        assert_identical(fast, arr)
        with pytest.raises(ConfigurationError):
            build_bfs_forest(gnp60, {0}, engine="warp")

    def test_tasks_engine_param(self, monkeypatch, engine_runs):
        # The tasks take no engine param; what they run by default
        # (ArrayEngine) equals the same sweep forced onto FastEngine.
        # One in-process worker, so the spy and the patch see every run.
        import repro.core.mis as mis_module
        import repro.sim.primitives as primitives_module

        tasks = (luby_mis_trial, flood_min_trial, bfs_forest_trial)
        specs = grid(["gnp-sparse", "tree"], [24], range(3))
        arr = [run_trials(task, specs, workers=1) for task in tasks]
        assert engine_runs == ["ArrayEngine"] * (len(tasks) * len(specs))
        engine_runs.clear()
        for module in (mis_module, primitives_module):
            monkeypatch.setattr(module, "resolve_engine",
                                lambda *_args: "fast")
        fast = [run_trials(task, specs, workers=1) for task in tasks]
        assert engine_runs == ["FastEngine"] * (len(tasks) * len(specs))
        assert ([[(r.ok, r.data) for r in rs] for rs in fast]
                == [[(r.ok, r.data) for r in rs] for rs in arr])
        for task in tasks:
            with pytest.raises(ConfigurationError, match="engine='warp'"):
                task(grid(["cycle"], [12], [0], engine="warp")[0])

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_default_engine_follows_fault_plan(self, cycle12, engine_runs,
                                               name):
        run = PRIMITIVES[name]
        run(cycle12)
        run(cycle12, faults=RoundFaultPlan(seed=1))  # every rate zero
        run(cycle12, faults=RoundFaultPlan(seed=1, loss=0.5))
        run(cycle12, engine="array", faults=RoundFaultPlan(seed=1))
        assert engine_runs == ["ArrayEngine", "ArrayEngine", "FastEngine",
                               "ArrayEngine"]
        with pytest.raises(ConfigurationError,
                           match="unknown engine 'fast'"):
            run(cycle12, engine="fast")

    @pytest.mark.parametrize("top", [2**62, 2**70])
    def test_wide_uids_run_on_fast_engine(self, engine_runs, top):
        # UIDs ArrayEngine cannot hold (>= 2**62, or past int64) send
        # every primitive to FastEngine; only a pinned engine refuses.
        g = DistributedGraph(nx.path_graph(5), uids=[3, 1, top, 7, 2])
        result = flood_min(g, 4, model=LOCAL)
        assert result.outputs == {v: 1 for v in range(5)}
        assert_identical(result, fast_flood_min(g, 4, model=LOCAL))
        assert_identical(luby_mis(g, IndependentSource(seed=2)),
                         fast_luby_mis(g, IndependentSource(seed=2)))
        assert_identical(build_bfs_forest(g, {1}), fast_bfs_forest(g, {1}))
        assert engine_runs == ["FastEngine"] * 6
        with pytest.raises(ConfigurationError, match="2\\*\\*62"):
            flood_min(g, 4, model=LOCAL, engine="array")

    def test_tasks_run_wide_uids_on_fast_engine(self, monkeypatch,
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
            fast_flood_min(g, 4, model=LOCAL))
        assert engine_runs == ["FastEngine"] * 2

    def test_tasks_follow_fault_knobs(self, engine_runs):
        for task in (luby_mis_trial, flood_min_trial, bfs_forest_trial):
            task(TrialSpec.of("cycle", 12, 0))
            task(TrialSpec.of("cycle", 12, 0, fault_seed=4))  # no rate set
            task(TrialSpec.of("cycle", 12, 0, fault_churn=0.2))
        assert engine_runs == ["ArrayEngine", "ArrayEngine",
                               "FastEngine"] * 3

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
                for run in (fast_luby_mis, luby_mis):
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

    @pytest.mark.parametrize("run", [
        lambda g, faults: luby_mis(g, IndependentSource(seed=2),
                                   engine="array", faults=faults),
        lambda g, faults: flood_min(g, 3, engine="array", faults=faults),
        lambda g, faults: build_bfs_forest(g, {0}, engine="array",
                                           faults=faults),
    ], ids=["luby_mis", "flood_min", "build_bfs_forest"])
    def test_array_rejects_active_faults(self, cycle12, run):
        with pytest.raises(ConfigurationError) as info:
            run(cycle12, RoundFaultPlan(seed=1, loss=0.5))
        assert str(info.value) == (
            "fault injection needs FastEngine (leave engine unset); the "
            "array engine has no per-message delivery hook")
        # A plan with every rate at zero is a no-op, not an error.
        assert run(cycle12, RoundFaultPlan(seed=1)).outputs


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

    def test_wide_uids_rejected(self):
        from repro.sim.graph import DistributedGraph
        import networkx as nx

        g = DistributedGraph(nx.path_graph(3), uids=[1, 2, 2**62])
        with pytest.raises(ConfigurationError):
            ArrayEngine(g, ArrayFloodMin(1))
        # The widest machine-word UID the contract allows still works.
        g = DistributedGraph(nx.path_graph(3), uids=[1, 2, 2**62 - 1])
        ref = FastEngine(g, lambda _v: FloodMin(2)).run()
        arr = ArrayEngine(g, ArrayFloodMin(2)).run()
        assert_identical(ref, arr)


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
            return [reader.uniform_int(node, bound, int(offset))
                    for node, offset in zip(nodes, offsets)]

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

    def test_bounded_stream_fallback(self):
        from repro.randomness import KWiseSource

        # 64-bit streams. Bound 9 reads 4-bit windows, so a lane that
        # rejects its way to index 64 runs past its stream's end: the
        # call raises there after metering the earlier lanes and the
        # lane's held prefix.
        source = partial(KWiseSource, k=4, num_nodes=8, bits_per_node=64,
                         seed=9)
        for bound, offsets in ((13, [0] * 4), (9, [0, 50, 58, 61])):
            self.assert_matches_per_node(list(range(4)), bound, offsets,
                                         source=source)