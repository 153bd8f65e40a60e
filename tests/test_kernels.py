"""The array engine's fused ops, mmap CSR, the sweep memo, engine names.

Five contracts, each pinned here:

1. **Fused ops are bit-identical** to the stateless reference passes,
   including on the degenerate topologies a naive ``reduceat`` gets
   wrong (empty graphs, all-isolated nodes, single node, empty segments
   interleaved with full ones), and the jagged-diagonal column fold
   behind them matches ``segment_reduce`` on hypothesis graphs with the
   fold-row threshold low enough that both the column fold and the
   ``reduceat`` tail run. ``adopt_neighbor_min3`` matches on both sides
   of its frontier threshold, and the standing broadcast accounts what
   a whole-network ``broadcast`` would.
2. **Fused results are fresh and cheap**: no later op overwrites an
   earlier result, and after warm-up an op allocates nothing
   edge-sized — only its ``int64[n]`` results, plus per-arc
   temporaries on a sparse frontier.
3. **A CSR over memory-mapped arrays is exact**: a graph's CSR
   arrays written with ``np.save`` and reopened through
   ``np.lib.format.open_memmap`` (mmap or not) rebuild the same
   ``CSRGraph``, and engine runs on it match runs on the graph.
4. **The sweep dedupe changes no bytes**: memoized graph builds
   produce result-for-result identical sweeps while building each
   distinct graph once.
5. **Engine names fail loudly**: the primitives let only ``"array"``
   be pinned (``"fast"`` and retired names such as ``"kernel"`` get the
   plain unknown-engine error, and the default ArrayEngine that
   replaced the retired engines matches the per-node oracle), and the
   trial tasks and scenarios, which take no engine, refuse the knob by
   name.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FAMILY_NAMES,
    count_frontier_calls,
    int_message_bits,
    oracle_bfs_forest,
    oracle_flood_min,
    oracle_luby_mis,
)
from repro.core.mis import luby_mis
from repro.errors import BandwidthExceeded, ConfigurationError
from repro.graphs import assign, make
from repro.graphs import ids as ids_module
from repro.randomness import IndependentSource
from repro.scenarios import ScenarioSpec
from repro.sim import CONGEST
from repro.sim.batch import CSRGraph, TrialSpec, grid, run_trials
from repro.sim.batch import array as array_module
from repro.sim.batch import tasks as batch_tasks
from repro.sim.batch.array import (
    ArrayContext,
    fast_int_message_bits,
    segment_reduce,
)
from repro.sim.batch.tasks import (
    bfs_forest_trial,
    flood_min_trial,
    luby_mis_trial,
)
from repro.sim.graph import DistributedGraph
from repro.sim.primitives import build_bfs_forest, flood_min

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min


def csr_of(neighbor_lists, uids=None):
    """Hand-built CSRGraph from index-keyed adjacency lists."""
    offsets = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in neighbor_lists], out=offsets[1:])
    indices = np.array([u for adj in neighbor_lists for u in adj] or [],
                       dtype=np.int64)
    if uids is None:
        uids = tuple(range(1, len(neighbor_lists) + 1))
    return CSRGraph(offsets, indices, tuple(uids))


def context_of(csr):
    """A deterministic CONGEST ArrayContext on ``csr``."""
    return ArrayContext(csr, csr.n, None, CONGEST, 64, False)


#: Degenerate topologies where a naive reduceat miscomputes.
EDGE_CASES = {
    "single-node": [[]],
    "all-isolated": [[], [], [], []],
    "interleaved-empty": [[2], [], [0, 4], [], [2]],
    "leading-empty": [[], [2], [1]],
    "trailing-empty": [[1], [0], []],
}


def reference_lex_max2(csr, primary, secondary, node_mask, empty=-1):
    best = np.full(csr.n, empty, dtype=np.int64)
    best_tie = np.full(csr.n, empty, dtype=np.int64)
    for v in range(csr.n):
        for u in csr.indices[csr.offsets[v]:csr.offsets[v + 1]]:
            if not node_mask[u]:
                continue
            pair = (primary[u], secondary[u])
            if pair > (best[v], best_tie[v]):
                best[v], best_tie[v] = pair
    return best, best_tie


def reference_adopt_min3(csr, primary, secondary, node_mask, bias=1,
                         empty=INT64_MAX):
    outs = [np.full(csr.n, empty, dtype=np.int64) for _ in range(3)]
    for v in range(csr.n):
        for u in csr.indices[csr.offsets[v]:csr.offsets[v + 1]]:
            if not node_mask[u]:
                continue
            trip = (primary[u], secondary[u] + bias, u)
            if trip < (outs[0][v], outs[1][v], outs[2][v]):
                outs[0][v], outs[1][v], outs[2][v] = trip
    return tuple(outs)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
class TestWorkspaceEdgeCases:
    """Fused ops == reference passes on every degenerate topology."""

    def make_case(self, name, seed=0):
        csr = csr_of(EDGE_CASES[name])
        ctx = context_of(csr)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 50, size=csr.n, dtype=np.int64)
        mask = rng.integers(0, 2, size=csr.n).astype(bool)
        return csr, ctx, values, mask

    def test_segment_reduce_matches_stateless(self, name):
        csr, ctx, values, _ = self.make_case(name)
        edge_values = values[csr.indices]
        for ufunc, identity in ((np.minimum, INT64_MAX), (np.maximum, -1),
                                (np.add, 0)):
            want = segment_reduce(edge_values, csr.offsets, ufunc, identity)
            np.testing.assert_array_equal(
                ctx.neighbor_reduce(edge_values, ufunc, identity), want)
        np.testing.assert_array_equal(
            ctx.neighbor_min(edge_values),
            segment_reduce(edge_values, csr.offsets, np.minimum, INT64_MAX))

    def test_count_and_gather(self, name):
        csr, ctx, values, mask = self.make_case(name)
        want_count = segment_reduce(
            mask[csr.indices].astype(np.int64), csr.offsets, np.add, 0)
        np.testing.assert_array_equal(ctx.neighbor_count(mask), want_count)
        want_min = segment_reduce(values[csr.indices], csr.offsets,
                                  np.minimum, INT64_MAX)
        np.testing.assert_array_equal(ctx.gather_neighbor_min(values),
                                      want_min)

    def test_lex_max2(self, name):
        csr, ctx, values, mask = self.make_case(name)
        secondary = np.arange(csr.n, dtype=np.int64) * 7 % 5
        want = reference_lex_max2(csr, values, secondary, mask)
        got = ctx.lex_neighbor_max2(values, secondary, mask)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_adopt_min3(self, name):
        csr, ctx, values, mask = self.make_case(name)
        secondary = np.arange(csr.n, dtype=np.int64)
        want = reference_adopt_min3(csr, values, secondary, mask, bias=3)
        got = ctx.adopt_neighbor_min3(values, secondary, mask, bias=3)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_ties_resolve_identically(self, name):
        # All-equal primaries force every tie-break path.
        csr, ctx, _, mask = self.make_case(name)
        values = np.full(csr.n, 9, dtype=np.int64)
        secondary = np.arange(csr.n, dtype=np.int64)[::-1].copy()
        want = reference_lex_max2(csr, values, secondary, mask)
        got = ctx.lex_neighbor_max2(values, secondary, mask)
        np.testing.assert_array_equal(got[1], want[1])
        want3 = reference_adopt_min3(csr, values, secondary, mask)
        got3 = ctx.adopt_neighbor_min3(values, secondary, mask)
        for g, w in zip(got3, want3):
            np.testing.assert_array_equal(g, w)


@st.composite
def irregular_adjacency(draw):
    """Neighbor lists of a relabeled random forest plus chords, with
    isolated nodes at the start, in the middle and at the end."""
    n = draw(st.integers(1, 30))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    chords = draw(st.lists(pairs, max_size=10))
    lead, middle, trail = (draw(st.integers(0, 3)) for _ in range(3))
    cut = draw(st.integers(0, n))
    label = draw(st.permutations(
        list(range(lead, lead + cut))
        + list(range(lead + cut + middle, lead + n + middle))))
    adjacency = [set() for _ in range(lead + n + middle + trail)]
    for u, v in [(i, p) for i, p in enumerate(parents) if p >= 0] + chords:
        if u != v:
            adjacency[label[u]].add(label[v])
            adjacency[label[v]].add(label[u])
    return [sorted(a) for a in adjacency]


def star_adjacency(leaves, isolated=3):
    """A star with its hub mid-index (so the degree sort moves it),
    followed by ``isolated`` edgeless nodes."""
    hub = leaves // 2
    adjacency = [[hub] for _ in range(leaves + 1)]
    adjacency[hub] = [v for v in range(leaves + 1) if v != hub]
    return adjacency + [[] for _ in range(isolated)]


#: Per-row results of these cannot depend on how a row is grouped.
EXACT_FOLDS = ((np.minimum, INT64_MAX), (np.maximum, INT64_MIN),
               (np.add, 0), (np.bitwise_or, 0))

#: Fold-row thresholds under test; None keeps the module default.
FOLD_THRESHOLDS = (1, 2, None)

FOLD_CASES = {
    "single-node": [[]],
    "edgeless": [[], [], [], []],
    "hub-above-threshold": star_adjacency(array_module.FOLD_MIN_ROWS + 500),
    # Edges (0,2),(1,2) plus isolated node 3: node 2, the last row with
    # edges, must hear from both 0 and 1.
    "last-row-before-isolated": [[2], [2], [0, 1], []],
}


def fold_context(neighbor_lists, threshold):
    """(csr, ArrayContext) with the JDS layout cut at ``threshold``."""
    csr = csr_of(neighbor_lists)
    with pytest.MonkeyPatch.context() as patch:
        if threshold is not None:
            patch.setattr(array_module, "FOLD_MIN_ROWS", threshold)
        return csr, context_of(csr)


def sequential_sums(values, offsets):
    """Each CSR row's float sum, strictly left to right (0.0 if empty)."""
    sums = np.zeros(offsets.size - 1)
    for v in range(sums.size):
        row = values[offsets[v]:offsets[v + 1]]
        if row.size:
            acc = row[0]
            for x in row[1:]:
                acc = acc + x
            sums[v] = acc
    return sums


class TestJDSFold:
    """The jagged-diagonal column fold against ``segment_reduce``."""

    def check_exact(self, neighbor_lists, threshold, seed):
        csr, ctx = fold_context(neighbor_lists, threshold)
        values = np.random.default_rng(seed).integers(
            INT64_MIN, INT64_MAX, size=csr.indices.size, endpoint=True,
            dtype=np.int64)
        for ufunc, identity in EXACT_FOLDS:
            np.testing.assert_array_equal(
                ctx.neighbor_reduce(values, ufunc, identity),
                segment_reduce(values, csr.offsets, ufunc, identity),
                err_msg=ufunc.__name__)

    @settings(max_examples=150, deadline=None)
    @given(irregular_adjacency(), st.sampled_from(FOLD_THRESHOLDS),
           st.integers(0, 2**32 - 1))
    def test_matches_segment_reduce(self, neighbor_lists, threshold, seed):
        self.check_exact(neighbor_lists, threshold, seed)

    @pytest.mark.parametrize("threshold", FOLD_THRESHOLDS)
    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_fixed_cases(self, name, threshold):
        for seed in range(3):
            self.check_exact(FOLD_CASES[name], threshold, seed)

    def test_hub_finishes_in_the_reduceat_tail(self):
        # Column 0 covers every leaf and is folded; the hub alone is
        # left open and takes one reduceat over its remaining edges.
        _, ctx = fold_context(FOLD_CASES["hub-above-threshold"], None)
        assert len(ctx._columns) == 1 and ctx._tail_starts.size == 1

    @settings(max_examples=100, deadline=None)
    @given(irregular_adjacency(), st.integers(0, 2**32 - 1))
    def test_float_add_order(self, neighbor_lists, seed):
        rng = np.random.default_rng(seed)
        csr = csr_of(neighbor_lists)
        e = csr.indices.size
        values = rng.standard_normal(e) * 10.0 ** rng.integers(-8, 9, e)
        # Threshold 1 folds every column: each row strictly left to right.
        _, ctx = fold_context(neighbor_lists, 1)
        np.testing.assert_array_equal(ctx.neighbor_reduce(values, np.add, 0.0),
                                      sequential_sums(values, csr.offsets))
        # The default leaves these small graphs' rows whole in the tail,
        # where reduceat's own grouping applies.
        want = segment_reduce(values, csr.offsets, np.add, 0.0)
        _, ctx = fold_context(neighbor_lists, None)
        np.testing.assert_array_equal(ctx.neighbor_reduce(values, np.add, 0.0),
                                      want)
        # Every threshold stays within the rounding bound of a float64
        # sum of deg terms, (deg - 1) * eps / 2 * sum|x| on each side.
        bound = csr.degrees * np.finfo(np.float64).eps * segment_reduce(
            np.abs(values), csr.offsets, np.add, 0.0)
        for threshold in FOLD_THRESHOLDS:
            _, ctx = fold_context(neighbor_lists, threshold)
            got = ctx.neighbor_reduce(values, np.add, 0.0)
            assert np.all(np.abs(got - want) <= bound)

    def test_float_add_grouping_differs_from_reduceat(self):
        # Row [1e16, 1, 1]: left to right, each 1 rounds away; reduceat
        # groups the row as 1e16 + (1 + 1).
        csr, ctx = fold_context([[1, 2, 3], [0], [0], [0]], 1)
        values = np.zeros(csr.indices.size)
        values[:3] = [1e16, 1.0, 1.0]
        assert ctx.neighbor_reduce(values, np.add, 0.0)[0] == 1e16
        assert segment_reduce(values, csr.offsets, np.add, 0.0)[0] == 1e16 + 2

    def test_edge_values_must_cover_every_edge(self):
        _, ctx = fold_context(FOLD_CASES["last-row-before-isolated"], None)
        with pytest.raises(ConfigurationError, match="shape"):
            ctx.neighbor_min(np.zeros(3, dtype=np.int64))

    @settings(max_examples=100, deadline=None)
    @given(irregular_adjacency(), st.sampled_from(FOLD_THRESHOLDS),
           st.integers(0, 2**32 - 1))
    def test_fused_ops_match_references(self, neighbor_lists, threshold,
                                        seed):
        csr, ctx = fold_context(neighbor_lists, threshold)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 6, size=csr.n, dtype=np.int64)  # ties
        secondary = rng.integers(0, 4, size=csr.n, dtype=np.int64)
        mask = rng.integers(0, 2, size=csr.n).astype(bool)
        np.testing.assert_array_equal(
            ctx.neighbor_count(mask),
            segment_reduce(mask[csr.indices].astype(np.int64), csr.offsets,
                           np.add, 0))
        np.testing.assert_array_equal(
            ctx.gather_neighbor_min(values),
            segment_reduce(values[csr.indices], csr.offsets, np.minimum,
                           INT64_MAX))
        for got, want in zip(
                ctx.lex_neighbor_max2(values, secondary, mask),
                reference_lex_max2(csr, values, secondary, mask)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(
                ctx.adopt_neighbor_min3(values, secondary, mask, bias=2),
                reference_adopt_min3(csr, values, secondary, mask, bias=2)):
            np.testing.assert_array_equal(got, want)


@st.composite
def frontier_cases(draw):
    """(neighbor lists, sender mask, primary, secondary) on both sides of
    the frontier threshold: no sender, one sender, a hub sender (plus a
    few leaves), or any subset. Irregular graphs carry isolated nodes at
    the end; keys in 0..2 tie on primary and on secondary."""
    kind = draw(st.sampled_from(["empty", "single", "hub", "subset"]))
    if kind == "hub":
        leaves = draw(st.integers(1, 40))
        adjacency = star_adjacency(leaves, isolated=draw(st.integers(0, 3)))
        senders = [leaves // 2] + draw(st.lists(st.integers(0, leaves),
                                                max_size=3))
    else:
        adjacency = draw(irregular_adjacency())
        nodes = st.integers(0, len(adjacency) - 1)
        senders = draw({"empty": st.just([]),
                        "single": st.lists(nodes, min_size=1, max_size=1),
                        "subset": st.lists(nodes)}[kind])
    n = len(adjacency)
    mask = np.zeros(n, dtype=bool)
    mask[senders] = True
    keys = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return (adjacency, mask, np.array(draw(keys), dtype=np.int64),
            np.array(draw(keys), dtype=np.int64))


class TestFrontierBranch:
    """``adopt_neighbor_min3`` pushes along the senders' arcs when they
    number fewer than ``e / FRONTIER_DIV`` and folds every edge
    otherwise; both branches equal the reference pass."""

    @settings(max_examples=200, deadline=None)
    @given(frontier_cases())
    def test_both_branches_match_reference(self, case):
        adjacency, mask, primary, secondary = case
        csr = csr_of(adjacency)
        want = reference_adopt_min3(csr, primary, secondary, mask, bias=2)
        edges = csr.indices.size
        arcs = int(csr.degrees[mask].sum())
        # 0 sends every op with an edge to the frontier; 2**40 sends every
        # op with a sender to the fold.
        for div in (0, array_module.FRONTIER_DIV, 2**40):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(array_module, "FRONTIER_DIV", div)
                calls = count_frontier_calls(patch)
                got = context_of(csr).adopt_neighbor_min3(
                    primary, secondary, mask, bias=2)
            assert calls[0] == (arcs * div < edges)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_default_threshold_splits_a_star(self, monkeypatch):
        # One leaf sends 1 arc of 2 * 60: frontier. The hub sends 60 of
        # 120: fold.
        csr = csr_of(star_adjacency(60))
        values = np.arange(csr.n, dtype=np.int64)
        calls = count_frontier_calls(monkeypatch)
        for sender, frontier in ((0, 1), (30, 0)):
            mask = values == sender
            calls[0] = 0
            got = context_of(csr).adopt_neighbor_min3(values, values, mask)
            assert calls[0] == frontier
            for g, w in zip(got, reference_adopt_min3(csr, values, values,
                                                      mask)):
                np.testing.assert_array_equal(g, w)


class TestStandingBroadcast:
    """``standing_broadcast`` re-measures only the changed nodes, yet
    accounts exactly what a whole-network ``broadcast`` would."""

    @staticmethod
    def totals(sends):
        return sends.messages, sends.total_bits, sends.max_message_bits

    @settings(max_examples=100, deadline=None)
    @given(irregular_adjacency(), st.integers(0, 2**32 - 1))
    def test_matches_broadcast_as_values_move(self, neighbor_lists, seed):
        rng = np.random.default_rng(seed)
        ctx = context_of(csr_of(neighbor_lists))
        values = rng.integers(0, 2**20, size=ctx.size, dtype=np.int64)
        got = ctx.standing_broadcast(values)
        for _ in range(4):
            assert self.totals(got) == self.totals(ctx.broadcast(
                ctx.all_nodes, ctx.int_message_bits(values)))
            # Values rise as well as fall; isolated nodes move too.
            changed = np.flatnonzero(rng.random(ctx.size) < 0.4)
            values[changed] = rng.integers(0, 2**20, size=changed.size)
            got = ctx.standing_broadcast(values, changed)

    def test_isolated_senders_never_set_the_max(self):
        ctx = context_of(csr_of([[1], [0, 2], [1], []]))
        values = np.array([3, 4, 5, 9])
        # Payloads of 3, 4, 4 bits on 1, 2, 1 arcs; node 3's goes nowhere.
        assert self.totals(ctx.standing_broadcast(values)) == (4, 15, 4)
        values[3] = 2**40  # 42 bits, still to no one
        assert self.totals(ctx.standing_broadcast(values, [3])) == (4, 15, 4)

    def test_overflow_on_a_later_round_raises_broadcasts_error(self):
        ctx = ArrayContext(csr_of([[1], [0, 2], [1], []]), 4, None,
                           CONGEST, 8, False)
        values = np.array([3, 4, 5, 9], dtype=np.int64)
        ctx.standing_broadcast(values)
        values[2] = 2**10  # 12 bits
        with pytest.raises(BandwidthExceeded) as standing:
            ctx.standing_broadcast(values, [2])
        with pytest.raises(BandwidthExceeded) as general:
            ctx.broadcast(ctx.all_nodes, ctx.int_message_bits(values))
        assert str(standing.value) == str(general.value) == (
            "node 2 -> 1: message of 12 bits exceeds CONGEST limit of 8 bits")


class TestFastIntMessageBits:
    """The frexp bit counter must match the shift-loop reference on
    every non-negative int64 it could ever see."""

    def test_exact_at_every_power_boundary(self):
        probes = [0, 1]
        for k in range(1, 63):
            probes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1])
        probes.append(np.iinfo(np.int64).max)
        values = np.array(sorted(set(probes)), dtype=np.int64)
        np.testing.assert_array_equal(
            fast_int_message_bits(values), int_message_bits(values))

    def test_exact_on_random_values(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, np.iinfo(np.int64).max, size=5000,
                              endpoint=True, dtype=np.int64)
        np.testing.assert_array_equal(
            fast_int_message_bits(values), int_message_bits(values))

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            fast_int_message_bits(np.array([3, -1], dtype=np.int64))

    def test_empty_input(self):
        assert fast_int_message_bits(np.array([], dtype=np.int64)).size == 0


class TestWorkspaceMechanics:
    def fused_ops(self, ctx, values, mask):
        """One call of every fused op; returns each result array."""
        return [ctx.neighbor_count(mask),
                ctx.gather_neighbor_min(values),
                *ctx.lex_neighbor_max2(values, values, mask),
                *ctx.adopt_neighbor_min3(values, values, mask)]

    def test_fused_results_survive_further_ops(self, gnp60):
        ctx = context_of(gnp60.csr)
        values = np.arange(ctx.size, dtype=np.int64)
        mask = values % 3 != 0
        kept = ctx.gather_neighbor_min(values)
        snapshot = kept.copy()
        later = []
        for round_index in range(3):  # 15 further fused results
            later += self.fused_ops(ctx, values + round_index, mask)
        np.testing.assert_array_equal(kept, snapshot)
        assert len({id(a) for a in later + [kept]}) == len(later) + 1

    def test_fused_ops_allocate_no_edge_buffers_after_warmup(self):
        # A clique makes edge buffers 200x larger than node outputs, so
        # one stray bool[e] temporary would dwarf every legitimate
        # allocation below.
        ctx = context_of(DistributedGraph(nx.complete_graph(200)).csr)
        edges = ctx.indices.size
        values = np.arange(ctx.size, dtype=np.int64)
        mask = values % 2 == 0
        edge_values = values[ctx.indices]

        def exercise():
            self.fused_ops(ctx, values, mask)
            ctx.neighbor_min(edge_values)
            ctx.broadcast(ctx.all_nodes, ctx.int_message_bits(values))

        exercise()  # warm up: build the edge buffers
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exercise()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < edges  # smaller than a single bool[e]

    def test_frontier_round_allocates_less_than_an_edge_mask(self):
        # One sender's 199 arcs of the clique's 39800: the push branch
        # allocates per arc and per node, never per edge.
        ctx = context_of(DistributedGraph(nx.complete_graph(200)).csr)
        edges = ctx.indices.size
        values = np.arange(ctx.size, dtype=np.int64)
        mask = values == 7
        ctx.adopt_neighbor_min3(values, values, mask)  # warm up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctx.adopt_neighbor_min3(values, values, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ctx._pads and not ctx._masks  # the fold never ran
        assert peak - before < edges  # smaller than a single bool[e]

    def test_permuted_layout_allocates_no_edge_buffers_after_warmup(self):
        # An irregular dense G(n, p) with isolated nodes at the start,
        # middle and end: its rows need sorting, so every reduction
        # scatters them back; the early columns fold, the high-degree
        # rows finish in the reduceat tail, and warm-up builds the
        # CSR-to-JDS edge permutation that neighbor_min maps through.
        rng = np.random.default_rng(5)
        n = 1500
        upper = np.triu(rng.random((n, n)) < 0.12, k=1)
        adjacency = upper | upper.T
        for v in (0, n // 2, n - 1):
            adjacency[v, :] = adjacency[:, v] = False
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(adjacency.sum(axis=1), out=offsets[1:])
        indices = np.nonzero(adjacency)[1].astype(np.int64)
        ctx = context_of(CSRGraph(offsets, indices, tuple(range(1, n + 1))))
        assert ctx._order is not None
        assert ctx._columns and ctx._tail_starts.size
        edges = ctx.indices.size
        values = np.arange(ctx.size, dtype=np.int64)
        mask = values % 2 == 0
        edge_values = values[ctx.indices]

        def exercise():
            self.fused_ops(ctx, values, mask)
            ctx.neighbor_min(edge_values)
            ctx.broadcast(ctx.all_nodes, ctx.int_message_bits(values))

        exercise()  # warm up: build the edge buffers and permutation
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exercise()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < edges  # smaller than a single bool[e]

    def test_whole_network_broadcast_skips_isolated_senders(self):
        # Node 3 has no neighbors, so its (largest) payload goes nowhere.
        ctx = context_of(csr_of([[1], [0, 2], [1], []]))
        sends = ctx.broadcast(ctx.all_nodes, np.array([3, 4, 5, 9]))
        assert (sends.messages, sends.total_bits,
                sends.max_message_bits) == (4, 3 + 8 + 5, 5)

    def test_engine_run_never_calls_np_append(self, monkeypatch, gnp60):
        # The original hot-path bug: segment_reduce padded via np.append
        # on every call. A whole array-engine run must not touch it.
        ref = oracle_flood_min(gnp60, 6)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("np.append on the engine hot path")

        monkeypatch.setattr(np, "append", forbidden)
        assert_identical(ref, flood_min(gnp60, 6, engine="array"))


def assert_identical(ref, got):
    assert got.outputs == ref.outputs
    assert dataclasses.asdict(got.report) == dataclasses.asdict(ref.report)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("engine", ["kernel", "native"])
class TestKernelParitySweep:
    """Callers of the retired engine names, on every graph family.

    The call is refused as an unknown engine, and the default that
    replaced those engines (ArrayEngine, which runs their fused passes)
    reproduces the per-node oracle. The full parity sweep of ArrayEngine lives
    in ``tests/test_array_engine.py``.
    """

    def graph(self, family):
        return assign(make(family, 13, seed=1), "random", seed=1)

    def refused(self, call, engine):
        with pytest.raises(ConfigurationError,
                           match=rf"unknown engine '{engine}'; pin 'array'"):
            call(engine)

    def test_luby_mis(self, family, engine):
        g = self.graph(family)
        self.refused(lambda e: luby_mis(g, IndependentSource(seed=101),
                                        engine=e), engine)
        assert_identical(oracle_luby_mis(g, IndependentSource(seed=101)),
                         luby_mis(g, IndependentSource(seed=101)))

    def test_flood_min(self, family, engine):
        g = self.graph(family)
        self.refused(lambda e: flood_min(g, 2, engine=e), engine)
        assert_identical(oracle_flood_min(g, 2), flood_min(g, 2))

    def test_bfs_forest(self, family, engine):
        g = self.graph(family)
        self.refused(lambda e: build_bfs_forest(g, {0, 2}, engine=e), engine)
        assert_identical(oracle_bfs_forest(g, {0, 2}),
                         build_bfs_forest(g, {0, 2}))


def engine_knob(engine):
    """``engine=`` as keyword arguments; ``None`` leaves it out."""
    return {} if engine is None else {"engine": engine}


def scenario_pinning(engine):
    algorithm = {"task": "luby-mis", **engine_knob(engine)}
    return ScenarioSpec.from_dict({
        "name": "x",
        "graph": {"family": "path", "sizes": [8]},
        "algorithm": algorithm,
    })


PATH8 = assign(make("path", 8), "sequential")

#: Every place an engine was ever named, as a call taking the engine
#: value (``None``: the call without an engine).
ENGINE_ENTRY_POINTS = {
    "luby_mis": lambda e: luby_mis(PATH8, IndependentSource(seed=1),
                                   engine=e),
    "flood_min": lambda e: flood_min(PATH8, 2, engine=e),
    "build_bfs_forest": lambda e: build_bfs_forest(PATH8, {0}, engine=e),
    "luby_mis_trial": lambda e: luby_mis_trial(
        TrialSpec.of("path", 8, 0, **engine_knob(e))),
    "flood_min_trial": lambda e: flood_min_trial(
        TrialSpec.of("path", 8, 0, **engine_knob(e))),
    "bfs_forest_trial": lambda e: bfs_forest_trial(
        TrialSpec.of("path", 8, 0, **engine_knob(e))),
    "ScenarioSpec.from_dict": scenario_pinning,
}

#: The entry points that no longer take an engine, and the refusal
#: naming the knob that each gives for any value.
REMOVED_ENGINE_KNOBS = {
    "luby_mis_trial": r"engine='{}' is not a trial param",
    "flood_min_trial": r"engine='{}' is not a trial param",
    "bfs_forest_trial": r"engine='{}' is not a trial param",
    "ScenarioSpec.from_dict": r"unknown key\(s\) \['engine'\] in algorithm",
}


@pytest.mark.parametrize("engine", ["kernel", "native", "warp"])
@pytest.mark.parametrize("entry", sorted(ENGINE_ENTRY_POINTS))
def test_bad_engine_rejected_everywhere(entry, engine):
    call = ENGINE_ENTRY_POINTS[entry]
    if entry in REMOVED_ENGINE_KNOBS:
        expected = REMOVED_ENGINE_KNOBS[entry].format(engine)
        valid = [None]
    else:
        expected = rf"unknown engine '{engine}'; pin 'array'"
        valid = [None, "array"]
    with pytest.raises(ConfigurationError, match=expected):
        call(engine)
    for good in valid:  # the same call with a valid engine runs
        call(good)


@pytest.mark.parametrize("engine", ["fast", "array"])
@pytest.mark.parametrize("entry", sorted(REMOVED_ENGINE_KNOBS))
def test_removed_engine_knob_refuses_valid_engines(entry, engine):
    with pytest.raises(ConfigurationError,
                       match=REMOVED_ENGINE_KNOBS[entry].format(engine)):
        ENGINE_ENTRY_POINTS[entry](engine)


def mmap_csr(graph, directory, mmap=True):
    """``graph.csr`` rebuilt from its arrays saved as ``.npy`` files."""
    arrays = {"offsets": graph.csr.offsets, "indices": graph.csr.indices,
              "uids": graph.csr.uid_array}
    for name, array in arrays.items():
        np.save(directory / f"{name}.npy", array)
    read = ((lambda path: np.lib.format.open_memmap(path, mode="r"))
            if mmap else np.load)
    offsets, indices, uids = (read(directory / f"{name}.npy")
                              for name in arrays)
    return CSRGraph(offsets, indices, tuple(uids.tolist()))


class TestMmapCSR:
    def test_save_load_roundtrip_exact(self, tmp_path, gnp60):
        csr = gnp60.csr
        for mmap in (True, False):
            loaded = mmap_csr(gnp60, tmp_path, mmap=mmap)
            assert (loaded.n, loaded.m) == (csr.n, csr.m)
            assert loaded == csr
            np.testing.assert_array_equal(loaded.degrees, csr.degrees)
            assert loaded.uid(3) == csr.uid(3)

    def test_mmap_runs_bit_identical(self, tmp_path, gnp60):
        loaded = mmap_csr(gnp60, tmp_path)
        assert isinstance(loaded.indices.base, np.memmap)
        ref = luby_mis(gnp60, IndependentSource(seed=5), engine="array")
        got = luby_mis(None, IndependentSource(seed=5), engine="array",
                       csr=loaded)
        assert_identical(ref, got)
        ref = build_bfs_forest(gnp60, {0, 7}, engine="array")
        got = build_bfs_forest(None, {0, 7}, engine="array", csr=loaded)
        assert_identical(ref, got)

    def test_engines_require_graph_or_csr(self):
        with pytest.raises(ConfigurationError, match="both were None"):
            flood_min(None, 3, engine="array")
        with pytest.raises(ConfigurationError, match="both were None"):
            build_bfs_forest(None, {0}, engine="array")


class TestNativeKnob:
    def test_unknown_engine_and_backend_rejected(self, path9):
        for name in ("warp", "kernel", "native", "fast"):
            with pytest.raises(ConfigurationError) as info:
                flood_min(path9, 2, engine=name)
            assert str(info.value) == (
                f"unknown engine {name!r}; pin 'array' or leave engine "
                "unset")


class TestSweepDedupe:
    """Graph-build memoization changes no result bytes."""

    SEEDS = list(range(5))

    #: The sweep's fault knobs: a lossy sweep and a clean one.
    SWEEP_FAULTS = {"lossy": {"fault_loss": 0.25}, "clean": {}}

    def run_sweep(self, family, faults="clean", ids="random"):
        specs = grid([family], [12], self.SEEDS, ids=ids, radius=6,
                     **self.SWEEP_FAULTS[faults])
        return run_trials(flood_min_trial, specs, workers=1)

    def fresh_memo(self, monkeypatch, reuse=True):
        monkeypatch.setattr(ids_module, "_TRIAL_GRAPHS",
                            type(ids_module._TRIAL_GRAPHS)())
        if not reuse:
            monkeypatch.setattr(
                batch_tasks, "trial_graph",
                lambda family, n, seed, ids: assign(
                    make(family, n, seed=seed), ids, seed=seed))

    @pytest.mark.parametrize("family", ["path", "gnp-sparse"])
    @pytest.mark.parametrize("faults", ["lossy", "clean"])
    def test_memoized_sweep_byte_identical(self, monkeypatch, family,
                                           faults):
        self.fresh_memo(monkeypatch)
        memoized = self.run_sweep(family, faults=faults)
        self.fresh_memo(monkeypatch, reuse=False)  # no reuse at all
        fresh = self.run_sweep(family, faults=faults)
        assert memoized == fresh

    def test_seed_invariant_family_builds_once(self, monkeypatch):
        self.fresh_memo(monkeypatch)
        calls = []
        real_make = ids_module.make
        monkeypatch.setattr(
            ids_module, "make",
            lambda *a, **k: calls.append(a) or real_make(*a, **k))
        self.run_sweep("path", ids="sequential")
        assert len(calls) == 1  # five seeds, one identical graph
        calls.clear()
        self.run_sweep("gnp-sparse")  # seed changes the topology
        assert len(calls) == len(self.SEEDS)

    def test_random_ids_still_keyed_by_seed(self, monkeypatch):
        # Seed-invariant topology but seeded UIDs: the graph family dedupes
        # per (family, n) only when the ID scheme is seed-free too.
        self.fresh_memo(monkeypatch)
        calls = []
        real_make = ids_module.make
        monkeypatch.setattr(
            ids_module, "make",
            lambda *a, **k: calls.append(a) or real_make(*a, **k))
        results = self.run_sweep("path", ids="random")
        assert len(calls) == len(self.SEEDS)
        # Distinct seeds must still see distinct UID assignments.
        bits = {r.data["total_bits"] for r in results}
        assert len(bits) > 1

    def test_task_engine_kernel_matches_fast(self, monkeypatch):
        # A spec naming an engine is refused; the task's own engine
        # (ArrayEngine, which absorbed the retired kernel engine)
        # reproduces the per-node oracle's run exactly.
        self.fresh_memo(monkeypatch)
        for name in ("kernel", "warp", "fast"):
            retired = TrialSpec.of("cycle", 12, 3, engine=name)
            with pytest.raises(ConfigurationError,
                               match=f"engine='{name}' is not a trial param"):
                luby_mis_trial(retired)
        spec = TrialSpec.of("cycle", 12, 3)
        ref = oracle_luby_mis(batch_tasks._graph_of(spec),
                              IndependentSource(seed=3))
        assert luby_mis_trial(spec).data == batch_tasks._report_data(ref)
