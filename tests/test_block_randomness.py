"""Block-mode randomness: purity, interval-ledger parity, CSR BFS.

Every public reader of every :class:`~repro.randomness.source.
RandomSource`, scalar or bulk, must be indistinguishable from reading
one bit at a time (``helpers.PerBitReader``, over the per-source bit
derivations of ``helpers.reference_bit``):

* a source is a pure function of ``(seed, node, index)`` — random access
  equals sequential access equals bulk access;
* the interval ledger reports the same intervals and counts as per-bit
  bookkeeping;
* ``bit_budget`` exhaustion raises at the same bit, with the same text;
* a read past a stream's end, or from a node without one, meters the
  same prefix and raises the source's own error at the same index.

Plus the CSR-BFS ports of ``ball``/``weak_diameter``/holder selection,
checked against networkx ground truth.
"""

from __future__ import annotations

import gc
import hashlib
import json
from functools import partial

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ModelViolation, RandomnessExhausted
from repro.graphs import assign, make
from repro.randomness import (
    BlockStream,
    EpsilonBiasedSource,
    IndependentSource,
    IntervalSet,
    KWiseSource,
    SharedRandomness,
    SparseRandomness,
    covering_holders,
    derive_key,
)
from repro.randomness.pooled import PooledBits
from repro.sim.batch import csr as csr_module
from repro.sim.batch.csr import bfs_distances
from repro.sim.graph import DistributedGraph
from repro.sim.messages import message_bits

from helpers import (
    assert_like_per_bit,
    nx_copy,
    nx_to_csr,
    read_outcome,
    reference_bit,
    source_ledger,
    sparse_graphs,
)


def _sources():
    """One instance of every bounded/unbounded source under test."""
    return [
        IndependentSource(seed=3),
        SharedRandomness(512, seed=3),
        KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3),
        EpsilonBiasedSource(num_nodes=8, bits_per_node=64, epsilon=0.05, seed=3),
        PooledBits({v: [(v * 7 + i) % 3 % 2 for i in range(64)]
                    for v in range(8)}),
    ]


def _pools(lengths):
    return lambda: PooledBits({
        key: [(key * 5 + i * 3) % 4 // 3 for i in range(length)]
        for key, length in enumerate(lengths)})


#: name -> (make, nodes (one repeated), a node without a stream or None,
#: the stream end the reads crowd). Pools 1 and 3 are shorter than it.
SOURCES = {
    "independent": (lambda: IndependentSource(seed=3),
                    [0, 5, "a", 5, (1, 2)], None, 512),
    "independent-budget": (lambda: IndependentSource(seed=3, bit_budget=70),
                           [0, 5, 1, 5, 2], None, 512),
    "shared": (lambda: SharedRandomness(40, seed=3),
               ["__shared__", "x", "__shared__"], None, 40),
    "kwise": (lambda: KWiseSource(4, num_nodes=8, bits_per_node=40, seed=3),
              [0, 5, 7, 5, 2], 9, 40),
    "kwise-budget": (lambda: KWiseSource(4, num_nodes=8, bits_per_node=40,
                                         seed=3, bit_budget=60),
                     [0, 5, 7, 5, 2], -1, 40),
    "kwise-m18": (lambda: KWiseSource(3, num_nodes=2048, bits_per_node=40,
                                      seed=2),
                  [0, 5, 2047, 900, 5], "x", 40),
    "expand-kwise": (lambda: SharedRandomness(512, seed=6).expand_kwise(
        4, num_nodes=32, bits_per_node=40), [31, 0, 7, 0], 32, 40),
    "epsilon-biased": (lambda: EpsilonBiasedSource(
        num_nodes=8, bits_per_node=40, epsilon=0.05, seed=3),
        [0, 5, 7, 5, 2], 8, 40),
    "epsilon-biased-m19": (lambda: EpsilonBiasedSource(
        num_nodes=8, bits_per_node=40, epsilon=0.001, seed=3),
        [0, 5, 7, 5, 2], "x", 40),
    "pooled": (_pools([40, 4, 40, 3, 40]), [0, 1, 2, 4, 1], 99, 40),
    "sparse": (lambda: SparseRandomness([0, 2, 5, "h"], h=1, seed=3),
               [0, 2, "h", 2], 1, 1),
}

#: name -> read(reader, nodes, outsider, end).
READS = {
    "bit": lambda r, vs, out, end: [r.bit(v, i) for v in vs
                                    for i in (0, end - 1, 0)],
    "bit-past-end": lambda r, vs, out, end: r.bit(vs[0], end),
    "bit-negative": lambda r, vs, out, end: r.bit(vs[0], -1),
    "bits": lambda r, vs, out, end: [r.bits(v, 6, 0) for v in vs],
    "bits-across-end": lambda r, vs, out, end: [r.bits(v, 6, end - 4)
                                                for v in vs],
    "bits_block": lambda r, vs, out, end: [r.bits_block(v, 12, end - 20)
                                           for v in vs],
    "bits_each": lambda r, vs, out, end: r.bits_each(vs, 12, end - 20),
    "bits_each-across-end": lambda r, vs, out, end: r.bits_each(
        vs, 8, end - 5),
    "geometric": lambda r, vs, out, end: [r.geometric(v, 10, end - 12)
                                          for v in vs],
    "geometrics": lambda r, vs, out, end: r.geometrics(vs, 10, end - 12),
    "geometrics-across-end": lambda r, vs, out, end: r.geometrics(
        vs, 10, end - 3),
    "uniform_int": lambda r, vs, out, end: [r.uniform_int(v, 1000, 1)
                                            for v in vs],
    "uniform_int_each": lambda r, vs, out, end: r.uniform_int_each(
        vs, 1000, [1] * len(vs)),
    "uniform_int_each-across-end": lambda r, vs, out, end: r.uniform_int_each(
        vs, 33, [end - 12 + i for i in range(len(vs))]),
    "outsider": lambda r, vs, out, end: [
        r.geometrics(vs[:2] + [out] + vs[2:], 6, 1),
        r.bits_each(vs[:2] + [out] + vs[2:], 6, 1),
        r.uniform_int_each(vs[:2] + [out] + vs[2:], 9, [1] * (len(vs) + 1))],
    "rereads": lambda r, vs, out, end: [
        r.bits_block(vs[0], 8, 0), r.geometrics(vs, 6, 2),
        r.uniform_int_each(vs, 100, [0] * len(vs)), r.bits_each(vs, 9, 0)],
    # Per-lane counts and bounds (int64 arrays), mixed with scalar reads.
    "bits_each-counts": lambda r, vs, out, end: r.bits_each(
        vs, lanes(vs, 3, 0, 12, 5, 1), end - 20),
    "bits_each-counts-across-end": lambda r, vs, out, end: r.bits_each(
        vs, lanes(vs, 8, 2, 0, 6, 3), end - 5),
    # Lanes longer than one window read over several attempts.
    "bits_each-counts-long": lambda r, vs, out, end: r.bits_each(
        vs, lanes(vs, 70, 1, 0, 130, 3), 2),
    "bits_each-counts-cursors": lambda r, vs, out, end: r.bits_each(
        vs, lanes(vs, 4, 9, 1, 0, 6), lanes(vs, 0, end - 6, 3, 9, end - 4)),
    "uniform_int_each-bounds": lambda r, vs, out, end: r.uniform_int_each(
        vs, lanes(vs, 1, 1000, 2, 33, 7), [1] * len(vs)),
    "uniform_int_each-bounds-across-end": lambda r, vs, out, end:
        r.uniform_int_each(vs, lanes(vs, 33, 1, 9, 600, 2),
                           [end - 12 + i for i in range(len(vs))]),
    "outsider-per-lane": lambda r, vs, out, end: [
        r.bits_each(vs[:2] + [out] + vs[2:], lanes(vs + [out], 2, 0, 3, 5),
                    1),
        r.uniform_int_each(vs[:2] + [out] + vs[2:],
                           lanes(vs + [out], 9, 1, 5, 300), [1] * (len(vs) + 1))],
    "mixed": lambda r, vs, out, end: [
        r.uniform_int_each(vs, lanes(vs, 600, 3, 1, 17), [0] * len(vs)),
        r.bits_each(vs, 5, 2),
        r.uniform_int_each(vs, 600, [3] * len(vs)),
        r.bits_each(vs, lanes(vs, 0, 7, 2), 4),
        [r.uniform_int(v, 5, 9) for v in vs]],
}


def lanes(nodes, *values):
    """An int64 array with one value per lane, ``values`` repeated."""
    return np.resize(np.array(values, dtype=np.int64), len(nodes))


#: name -> read(source, nodes): one bulk read over every lane.
BULK_READS = {
    "bits_each": lambda s, vs: s.bits_each(vs, 6, 1),
    "geometrics": lambda s, vs: s.geometrics(vs, 6, 1),
    # Rejects about 40% of draws, so lanes read again.
    "uniform_int_each": lambda s, vs: s.uniform_int_each(vs, 600,
                                                         [1] * len(vs)),
    "bits_each-counts": lambda s, vs: s.bits_each(vs, lanes(vs, 6, 1, 3), 1),
    "bits_each-counts-long": lambda s, vs: s.bits_each(
        vs, lanes(vs, 150, 1, 3), 1),
    "uniform_int_each-bounds": lambda s, vs: s.uniform_int_each(
        vs, lanes(vs, 600, 5, 40), [1] * len(vs)),
}


def _count_calls(source, name, monkeypatch):
    """Spy on one hook of ``source``: the list its calls append to."""
    calls = []
    hook = getattr(source, name)

    def counted(*args):
        calls.append(args)
        return hook(*args)

    monkeypatch.setattr(source, name, counted)
    return calls


class TestCallShape:
    """A bulk read asks every lane's stream limit in one
    ``_stream_limits`` call and meters every lane in one ``_meter`` call,
    however many generation attempts it makes and whether or not it
    raises."""

    @pytest.mark.parametrize("read", sorted(BULK_READS))
    @pytest.mark.parametrize("case", sorted(SOURCES))
    def test_one_limits_and_one_meter_call_per_read(self, case, read,
                                                    monkeypatch):
        make, nodes, _outsider, _end = SOURCES[case]
        source = make()
        limits = _count_calls(source, "_stream_limits", monkeypatch)
        meters = _count_calls(source, "_meter", monkeypatch)
        raws = _count_calls(source, "_raw_bits", monkeypatch)
        try:
            BULK_READS[read](source, list(nodes))
        except (ConfigurationError, ModelViolation, RandomnessExhausted):
            pass  # bounded streams may run out; the shape is the same
        assert len(limits) == 1 and limits[0][0] == list(nodes)
        assert len(meters) == 1
        assert raws, "the read generated nothing"

    def test_rejection_rounds_share_one_meter_call(self, monkeypatch):
        source = IndependentSource(seed=3)
        meters = _count_calls(source, "_meter", monkeypatch)
        raws = _count_calls(source, "_raw_bits", monkeypatch)
        source.uniform_int_each(list(range(200)), 600, [0] * 200)
        assert len(raws) > 1 and len(meters) == 1

    def test_per_lane_counts_read_in_windows(self, monkeypatch):
        # One long lane among short ones: every attempt's window is at
        # most _BITS_WINDOW wide and only the lanes still short read on.
        source = IndependentSource(seed=3)
        raws = _count_calls(source, "_raw_bits", monkeypatch)
        counts = np.array([1000, 1, 2, 0, 1])
        bits = source.bits_each(list(range(5)), counts)
        assert bits.tolist() == [b for v, c in enumerate(counts)
                                 for b in IndependentSource(seed=3).bits(v, c)]
        assert max(count for _nodes, _starts, count in raws) == 64
        assert sum(len(nodes) * count for nodes, _starts, count in raws) \
            == 5 * 64 + (-(-1000 // 64) - 1) * 64

    def test_independent_source_has_no_limits(self):
        assert IndependentSource(seed=3)._stream_limits([0, "a"]) is None


class TestCollectorPause:
    """Reads run with the cyclic garbage collector paused and leave it
    as they found it, also when they raise."""

    def test_paused_inside_and_restored_after(self, monkeypatch):
        source = IndependentSource(seed=1)
        seen = []
        hook = source._raw_bits

        def spy(*args):
            seen.append(gc.isenabled())
            return hook(*args)

        monkeypatch.setattr(source, "_raw_bits", spy)
        assert gc.isenabled()
        source.bits_each([0, 1], 4)
        source.bit(2, 0)
        assert seen == [False, False] and gc.isenabled()
        with pytest.raises(ConfigurationError, match="negative"):
            source.bits_each([0, 1], 4, -1)
        assert gc.isenabled()
        gc.disable()
        try:
            source.bits_each([3], 4)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestPurity:
    """Block-mode bits are a pure function of (seed, node, index), and
    every reader reads them like the per-bit reference."""

    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("case", sorted(SOURCES))
    def test_every_reader_matches_per_bit_reference(self, case, read):
        make, nodes, outsider, end = SOURCES[case]
        if outsider is None and read == "outsider":
            outsider = nodes[0]
        assert_like_per_bit(make, lambda r: READS[read](r, list(nodes),
                                                        outsider, end))

    def test_random_access_equals_sequential(self):
        for source in _sources():
            twin = type(source).__name__
            seq = {(v, i): source.bit(v, i)
                   for v in range(8) for i in range(64)}
            assert seq == {(v, i): reference_bit(source, v, i)
                           for v in range(8) for i in range(64)}, twin
            # A fresh instance read in a scrambled order must agree.
            other = [s for s in _sources()
                     if type(s).__name__ == twin][0]
            rng = np.random.default_rng(1)
            order = [(v, i) for v in range(8) for i in range(64)]
            for j in rng.permutation(len(order)).tolist():
                v, i = order[j]
                assert other.bit(v, i) == seq[(v, i)], twin

    def test_bulk_equals_scalar(self):
        for source in _sources():
            name = type(source).__name__
            for v in range(8):
                block = source.bits_block(v, 64)
                assert block.dtype == np.uint8
                assert [reference_bit(source, v, i) for i in range(64)] == \
                    block.tolist(), name

    def test_offset_blocks_are_views_of_the_same_stream(self):
        source = IndependentSource(seed=9)
        whole = source.bits_block("n", 600)  # spans >1 PRF block
        for start, count in ((0, 13), (500, 100), (511, 2), (37, 512)):
            assert source.bits_block("n", count, start).tolist() == \
                whole[start:start + count].tolist()

    def test_same_seed_same_stream_different_seed_differs(self):
        a = IndependentSource(seed=5)
        b = IndependentSource(seed=5)
        c = IndependentSource(seed=6)
        assert a.bits(0, 256) == b.bits(0, 256)
        assert a.bits(0, 256) != c.bits(0, 256)


@given(st.lists(
    st.tuples(st.integers(0, 3),          # node
              st.integers(0, 200),        # offset
              st.integers(1, 40)),        # count
    min_size=1, max_size=30))
def test_interval_ledger_matches_per_bit_ledger(ops):
    """Arbitrary overlapping reads: interval counts == per-bit counts."""
    assert_like_per_bit(
        partial(IndependentSource, seed=11),
        lambda r: [r.bits_block(node, count, offset)
                   for node, offset, count in ops])


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 20)),
                min_size=1, max_size=20))
def test_interval_set_matches_set_semantics(ranges):
    ledger = IntervalSet()
    model = set()
    for start, length in ranges:
        added = ledger.add(start, start + length)
        fresh = set(range(start, start + length)) - model
        assert added == len(fresh)
        model |= fresh
        assert ledger.total == len(model)
    for start, length in ranges:
        assert ledger.missing(start, start + length) == []
    # Gaps reported by missing() are exactly the uncovered integers.
    gaps = ledger.missing(0, 100)
    uncovered = {i for i in range(100) if i not in model}
    assert {i for s, e in gaps for i in range(s, e)} == uncovered
    # One representation per covered set: the maximal runs, in order.
    runs = [i for i in sorted(model) if i - 1 not in model]
    assert ledger.starts == runs
    assert ledger.ends == [next(j for j in range(i, 200) if j not in model)
                           for i in runs]


class TestBudget:
    def test_bulk_exhaustion_raises_at_same_count(self):
        # Budget 10: reads of 4+4 fine, the next 4 raises after serving
        # 2 — the ledger must stop at exactly 10.
        error, source = assert_like_per_bit(
            partial(IndependentSource, seed=1, bit_budget=10),
            lambda r: [r.bits_block("a", 4), r.bits_block("a", 4, 4),
                       r.bits_block("a", 4, 8)])
        assert error[0] is RandomnessExhausted
        assert source.bits_consumed == 10
        assert source.bits_consumed_by("a") == 10

    def test_exhaustion_message_names_first_unserved_index(self):
        error, source = assert_like_per_bit(
            partial(IndependentSource, seed=1, bit_budget=6),
            lambda r: r.bits_block("a", 9))
        assert error == (RandomnessExhausted, "bit budget of 6 bits "
                         "exhausted (node 'a' requested index 6)")
        assert source.bits_consumed == 6

    def test_rereads_are_free_under_budget(self):
        source = IndependentSource(seed=1, bit_budget=8)
        first = source.bits("a", 8)
        assert source.bits("a", 8) == first       # full bulk re-read
        assert source.bit("a", 3) == first[3]     # scalar re-read
        assert source.bits_consumed == 8
        with pytest.raises(RandomnessExhausted):
            source.bit("a", 8)
        error, _ = assert_like_per_bit(
            partial(IndependentSource, seed=1, bit_budget=8),
            lambda r: [r.bits("a", 8), r.bits("a", 8), r.bit("a", 3),
                       r.geometric("a", 8, 0), r.uniform_int("a", 200, 0),
                       r.bit("a", 8)])
        assert error[0] is RandomnessExhausted

    def test_exhaustion_names_the_first_unfit_bit_past_served_ones(self):
        # The gap [4, 6) spends the last 2 bits of room; [6, 10) is served
        # already, so the first bit that does not fit is 10, not 6.
        error, source = assert_like_per_bit(
            partial(IndependentSource, seed=1, bit_budget=10),
            lambda r: [r.bits_block("a", 4), r.bits_block("a", 4, 6),
                       r.bits_block("a", 12)])
        assert error == (RandomnessExhausted, "bit budget of 10 bits "
                         "exhausted (node 'a' requested index 10)")
        assert source_ledger(source) == {"a": ([0], [10])}

    def test_partially_cached_bulk_read_counts_only_fresh_bits(self):
        error, source = assert_like_per_bit(
            partial(IndependentSource, seed=1, bit_budget=12),
            lambda r: [r.bits_block("a", 8),
                       r.bits_block("a", 8, 4),  # 4 cached + 4 fresh
                       r.bit("a", 12)])
        assert error[0] is RandomnessExhausted
        assert source.bits_consumed == 12

    @pytest.mark.parametrize("budget", [0, 1, 13, 40])
    @pytest.mark.parametrize("read", ["bits_each", "geometrics",
                                      "uniform_int_each", "rereads",
                                      "bits_each-counts",
                                      "uniform_int_each-bounds", "mixed"])
    def test_budget_runs_out_in_every_reader(self, budget, read):
        nodes = [0, 3, 1, 3, 2]
        assert_like_per_bit(
            partial(KWiseSource, 4, num_nodes=8, bits_per_node=40, seed=3,
                    bit_budget=budget),
            lambda r: READS[read](r, nodes, None, 40))


class TestErrorPathParity:
    def test_bits_block_past_pool_end_meters_valid_prefix(self):
        # Per-bit: bit(0..3) serve, bit(4) raises -> 4 consumed.
        error, bulk = assert_like_per_bit(
            partial(PooledBits, {"n": [1, 0, 1, 1]}),
            lambda r: r.bits_block("n", 6))
        assert error == (RandomnessExhausted,
                         "pool 'n' has 4 bits; index 4 requested")
        assert bulk.bits_consumed == 4
        assert bulk.bits_consumed_by("n") == 4

    def test_bits_block_past_shared_end_meters_valid_prefix(self):
        error, shared = assert_like_per_bit(
            partial(SharedRandomness, 8, seed=1),
            lambda r: r.bits_block("__shared__", 12))
        assert error[0] is RandomnessExhausted
        assert shared.bits_consumed == 8
        with pytest.raises(RandomnessExhausted):
            SharedRandomness(8, seed=1).global_bits(12)

    def test_negative_pool_index_is_a_range_error(self):
        error, pool = assert_like_per_bit(
            partial(PooledBits, {"n": [1, 0, 1, 1]}),
            lambda r: r.bit("n", -1))
        assert error == (RandomnessExhausted,
                         "pool 'n' has 4 bits; index -1 requested")
        assert pool.bits_consumed == 0

    @pytest.mark.parametrize("read", [
        lambda r: r.bit(1, 0),
        lambda r: r.bits_each([0, 1, 2], 1),
        lambda r: r.geometrics([0, 1], 3),
        lambda r: r.uniform_int_each([0, 1], 2, [0, 0]),
    ])
    def test_sparse_reads_past_a_holders_bit(self, read):
        error, _ = assert_like_per_bit(
            partial(SparseRandomness, [0, 2], h=1, seed=4), read)
        assert error is not None and error[0] is ModelViolation

    def test_sized_cache_does_not_alias_bool_and_int_payloads(self):
        # True == 1 and hash(True) == hash(1), but they encode to
        # different message sizes: 1 bit and 2 bits.
        from helpers import NodeProgram, SyncEngine
        from repro.sim import CONGEST

        class AliasingProgram(NodeProgram):
            def init(self, ctx):
                return {u: 1 for u in ctx.neighbors}

            def step(self, ctx, round_index, inbox):
                if round_index == 1:
                    return {u: True for u in ctx.neighbors}
                ctx.finish(sorted(inbox.values()))
                return {}

        g = assign(make("cycle", 8), "random", seed=1)
        sync = SyncEngine(g, lambda _v: AliasingProgram(),
                          model=CONGEST).run()
        assert sync.outputs == {v: [True, True] for v in range(8)}
        assert sync.report.messages == 2 * 16
        assert sync.report.total_bits == 16 * message_bits(1) \
            + 16 * message_bits(True)
        assert sync.report.max_message_bits == message_bits(1) == 2


class TestNegativeIndex:
    """A negative stream index is a caller error, raised before metering
    — also when the bit budget is already spent."""

    @pytest.mark.parametrize("call, index", [
        (lambda s: s.bit(0, -1), -1),
        (lambda s: s.bits_block(0, 4, -3), -3),
        (lambda s: s.uniform_int_each([0], 10, [-2]), -2),
        (lambda s: s.geometrics([0], 5, -4), -4),
    ])
    def test_rejected_with_node_and_index(self, call, index):
        self._assert_rejected(call, index, budget=None)

    @pytest.mark.parametrize("name, call, index", [
        ("bit", lambda s: s.bit(0, -1), -1),
        ("bits", lambda s: s.bits(0, 2, -1), -1),
        ("bits_block", lambda s: s.bits_block(0, 1, -1), -1),
        ("bits_each", lambda s: s.bits_each([0], 5, -4), -4),
        ("geometric", lambda s: s.geometric(0, 1, -1), -1),
        ("geometrics", lambda s: s.geometrics([0], 5, -4), -4),
        ("uniform_int", lambda s: s.uniform_int(0, 10, -2), -2),
        ("uniform_int_each", lambda s: s.uniform_int_each([0], 10, [-2]), -2),
    ])
    def test_range_error_wins_over_an_exhausted_budget(self, name, call,
                                                       index):
        self._assert_rejected(call, index, budget=0)

    @staticmethod
    def _assert_rejected(call, index, budget):
        source = IndependentSource(1, bit_budget=budget)
        with pytest.raises(ConfigurationError,
                           match=f"node 0 .*index {index}$"):
            call(source)
        assert source.bits_consumed == 0
        error, _ = assert_like_per_bit(
            partial(IndependentSource, 1, bit_budget=budget), call)
        assert error[0] is ConfigurationError

    def test_bulk_sampler_meters_earlier_nodes_like_per_node_calls(self):
        error, bulk = assert_like_per_bit(
            partial(IndependentSource, 1),
            lambda r: r.uniform_int_each(["a", "b", "c"], 1000, [0, -9, 0]))
        assert error == (ConfigurationError,
                         "node 'b' requested negative stream index -9")
        assert bulk.bits_consumed > 0
        assert list(bulk.nodes_touched()) == ["a"]


class TestPinnedPRF:
    """The PRF bytes themselves, so key derivation and block generation
    can be restructured only if every stream stays the same."""

    def test_derived_keys(self):
        expected = {
            5: "f1c6470b3707b42f26962a52e27682c4"
               "53801ea866f7a90d6b456fc45ada4452",
            (2, 3): "d9ff87e491cc0d7d2d5020d9ce61ea9f"
                    "f2f7447fd6cef89b602e6c0d16076dcc",
            "a": "8006398247372d3b7fc75c412cc1bf73"
                 "20044f4e5ae17a28728ff97d2461cde3",
        }
        for node, key in expected.items():
            assert derive_key("repro-independent", 0, repr(node)).hex() == key

    def test_independent_stream_prefix(self):
        # First 128 bits, packed little-endian within each byte (the
        # digest's own byte layout).
        expected = {0: "a040c95ac36e929ad9bad22998d47175",
                    1: "878488c5e7977222686b713632123c21"}
        source = IndependentSource(seed=0)
        for node, prefix in expected.items():
            bits = source.bits_block(node, 128)
            assert np.packbits(bits, bitorder="little").tobytes().hex() \
                == prefix
            assert [source.bit(node, i) for i in range(128)] == bits.tolist()

    def test_shared_first_block(self):
        bits = SharedRandomness(512, seed=0).global_bits(512)
        assert np.packbits(bits, bitorder="little").tobytes().hex() == (
            "d66054bdfb3c54edc6c09c5ff3288ba66ddc8c811111f5381d7bb90ecd4f1799"
            "bb684c874532bdf3598580a3bbe13e379bbe1d5bd77c185ed50a079c78375898")


class TestStreamKeys:
    """``IndependentSource`` keys a new node's stream from a state fed
    the label and seed once: byte for byte ``derive_key``."""

    NODES = [0, 7, -3, 2**64 + 5, -(2**70), "a", "", "é", (1, 2),
             ("x", (3, -4))]

    @pytest.mark.parametrize("seed", [0, -1, 2**200])
    def test_keys_are_derive_key(self, seed):
        parent = IndependentSource(seed=seed)
        child = parent.fork("phase-1")
        for source in (parent, child, child.fork("x")):
            # A node listed twice in one call gets its one stream.
            streams = source._streams_of(self.NODES + self.NODES[::3])
            assert len(source._streams) == len(self.NODES)
            for node, stream in zip(self.NODES + self.NODES[::3], streams):
                assert stream is source._streams[node]
                assert stream._key == derive_key(
                    "repro-independent", source.seed, repr(node))

    def test_bulk_and_scalar_reads_open_the_same_streams(self):
        bulk, scalar = IndependentSource(seed=5), IndependentSource(seed=5)
        rows = bulk.bits_each(self.NODES, 40, 490)
        for node, row in zip(self.NODES, rows):
            assert scalar.bits_block(node, 40, 490).tolist() == row.tolist()
            assert row.tolist() == BlockStream(derive_key(
                "repro-independent", 5, repr(node))).read(490, 40).tolist()

    @pytest.mark.parametrize("order", ["numpy-first", "int-first"])
    def test_numpy_integer_node_reads_the_ints_stream(self, order):
        """``np.int64(5) == 5`` is one dict key, so it is one stream:
        the stream of ``5``, whichever form opens it."""
        expected = BlockStream(derive_key("repro-independent", 4, "5")).read(
            0, 64).tolist()
        forms = [np.int64(5), 5]
        if order == "int-first":
            forms.reverse()
        scalar, bulk = IndependentSource(seed=4), IndependentSource(seed=4)
        assert [scalar.bits_block(v, 64).tolist() for v in forms] == \
            [expected, expected]
        assert bulk.bits_each(forms + [np.uint8(5), np.int32(5)],
                              64).tolist() == [expected] * 4
        assert bulk._streams[5]._key == derive_key("repro-independent", 4,
                                                   "5")
        assert scalar.bits_consumed == bulk.bits_consumed == 64

    @pytest.mark.parametrize("order", ["bool-first", "int-first"])
    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_bool_node_reads_the_ints_stream(self, order, flag):
        """``True == 1`` is one dict key, so it is one stream: the stream
        of ``1``, as a fresh source reads it, whichever form opens it."""
        expected = IndependentSource(seed=4).bits_block(1, 16).tolist()
        assert expected == BlockStream(derive_key(
            "repro-independent", 4, "1")).read(0, 16).tolist()
        forms = [flag, 1]
        if order == "int-first":
            forms.reverse()
        scalar, bulk = IndependentSource(seed=4), IndependentSource(seed=4)
        assert [scalar.bits_block(v, 16).tolist() for v in forms] == \
            [expected, expected]
        assert bulk.bits_each(forms, 16).tolist() == [expected] * 2
        assert bulk._streams[1]._key == derive_key("repro-independent", 4,
                                                   "1")


def _metering_state(source):
    """PRF blocks computed, bits metered, and a digest of the ledger."""
    ledger = {repr(v): [source._ledgers[v].starts, source._ledgers[v].ends]
              for v in sorted(source.nodes_touched(), key=repr)}
    text = json.dumps(ledger, sort_keys=True).encode()
    return (sum(len(s._blocks) for s in source._streams.values()),
            source.bits_consumed, len(ledger),
            hashlib.sha256(text).hexdigest()[:16])


class TestPinnedMetering:
    """PRF work and metering of whole runs, pinned: a reader that
    computes an extra block or meters a different bit changes them."""

    def test_luby_on_array_engine(self):
        from repro.core.mis import luby_mis

        graph = assign(make("gnp-sparse", 2000, seed=1), "random", seed=1)
        source = IndependentSource(seed=7)
        assert luby_mis(graph, source, engine="array").report.rounds == 10
        assert _metering_state(source) == (2000, 53416, 2000,
                                           "c8e589d9ce4a7f7d")

    def test_elkin_neiman(self):
        from repro.core.decomposition import elkin_neiman

        graph = assign(make("gnp-sparse", 64, seed=2), "random", seed=2)
        source = IndependentSource(seed=3)
        elkin_neiman(graph, source)
        assert _metering_state(source) == (65, 283, 64, "068bb75f4a1022a4")
        assert source_ledger(source)[63] == ([0, 60, 120, 180, 240, 300],
                                             [5, 61, 121, 181, 241, 302])

    def test_elkin_neiman_out_of_budget(self):
        from repro.core.decomposition import elkin_neiman

        graph = assign(make("gnp-sparse", 64, seed=2), "random", seed=2)
        source = IndependentSource(seed=3, bit_budget=200)
        with pytest.raises(RandomnessExhausted,
                           match=r"^bit budget of 200 bits exhausted "
                                 r"\(node 20 requested index 120\)$"):
            elkin_neiman(graph, source)
        assert _metering_state(source) == (64, 200, 64, "055c872e3eaf0b78")


    def test_randomized_orientation(self):
        # Every owner's coins in one bits_each, every fix-up round's
        # sinks in one uniform_int_each: the per-node reads' ledger.
        from repro.core.sinkless import randomized_orientation

        graph = assign(make("regular-3", 270, seed=1), "random", seed=1)
        source = IndependentSource(seed=5)
        orientation, report, extra = randomized_orientation(graph, source)
        assert (extra["fixup_rounds"], report.randomness_bits) == (4, 529)
        assert _metering_state(source) == (215, 529, 215,
                                           "3a53e272c72bfeb2")
        text = repr(sorted(orientation.items())).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == "340297c153ba734a"

    def test_randomized_orientation_out_of_budget(self):
        from repro.core.sinkless import randomized_orientation

        graph = assign(make("regular-3", 270, seed=1), "random", seed=1)
        source = IndependentSource(seed=5, bit_budget=500)
        with pytest.raises(RandomnessExhausted,
                           match=r"^bit budget of 500 bits exhausted "
                                 r"\(node 174 requested index 2\)$"):
            randomized_orientation(graph, source)
        # Bits, nodes and ledger; the one read generates every owner's
        # window before it meters, so the PRF block count is not pinned.
        assert _metering_state(source)[1:] == (500, 213, "2a433c324088f801")

    def test_mark_and_conquer(self):
        # The touched vertices' mark bits in one bits_each.
        import random

        from repro.core.hypergraph import mark_and_conquer
        from repro.structures import Hypergraph

        rng = random.Random(4)
        vertices = list(range(120))
        edges = [frozenset(rng.sample(vertices, 3)) for _ in range(10)] \
            + [frozenset(rng.sample(vertices, 80)) for _ in range(8)]
        source = IndependentSource(seed=2)
        _colors, stats = mark_and_conquer(Hypergraph(vertices, edges),
                                          source, bit_offset=3)
        assert stats["classes"][8]["marked"] == 25
        assert _metering_state(source) == (120, 1440, 120,
                                           "facfadc1d07afdf9")


class TestBulkSamplers:
    @given(st.integers(1, 40), st.integers(0, 100))
    def test_geometric_block_equals_per_bit(self, cap, offset):
        error, source = assert_like_per_bit(
            partial(IndependentSource, seed=33),
            lambda r: r.geometric("g", cap, offset))
        assert error is None
        assert 1 <= source.bits_consumed <= cap

    def test_geometrics_matches_scalar_calls(self):
        nodes = list(range(20))
        bulk, _ = read_outcome(lambda: IndependentSource(seed=8).geometrics(
            nodes, cap=12, offset=36))
        seq = IndependentSource(seed=8)
        assert bulk == tuple(map(list, zip(*[seq.geometric(v, 12, 36)
                                             for v in nodes])))
        assert _assert_geometrics_like_per_bit(
            partial(IndependentSource, seed=8), nodes, 12, 36) is None

    def test_geometric_near_end_of_bounded_stream(self):
        # cap reaches past the pool's end but the draw ends before it:
        # must succeed, exactly like bit-at-a-time flipping.
        pool = PooledBits({"c": [1, 1, 0, 1]})
        value, used = pool.geometric("c", cap=10)
        assert (value, used) == (3, 3)
        pool2 = PooledBits({"c": [1, 1, 1, 1]})
        with pytest.raises(RandomnessExhausted):
            pool2.geometric("c", cap=10)
        for bits in ([1, 1, 0, 1], [1, 1, 1, 1]):
            assert_like_per_bit(partial(PooledBits, {"c": bits}),
                                lambda r: r.geometric("c", 10))


def _assert_geometrics_like_per_bit(make, nodes, cap, offset):
    """``geometrics`` and per-node ``geometric`` calls, each on a fresh
    source, against the per-bit reference: same values, bits used,
    error and ledger. Returns the error, if any."""
    error, _ = assert_like_per_bit(
        make, lambda r: r.geometrics(nodes, cap, offset))
    scalar, _ = assert_like_per_bit(
        make, lambda r: [r.geometric(v, cap, offset) for v in nodes])
    assert scalar == error
    return error


class TestGeometricsParity:
    """``geometrics`` draws every node's block with one ``_raw_bits``
    call and must read like per-bit ``geometric`` calls."""

    CASES = {
        "independent": (lambda: IndependentSource(seed=8), range(30), 12, 36),
        "kwise-tabled": (lambda: KWiseSource(4, num_nodes=40,
                                             bits_per_node=64, seed=2),
                         range(40), 10, 20),
        "kwise-m18": (lambda: KWiseSource(3, num_nodes=2048,
                                          bits_per_node=64, seed=2),
                      [0, 5, 2047, 900, 5], 8, 11),
        "epsilon-biased": (lambda: EpsilonBiasedSource(
            num_nodes=8, bits_per_node=64, epsilon=0.05, seed=3),
            range(8), 10, 3),
        "expand-kwise": (lambda: SharedRandomness(512, seed=6).expand_kwise(
            4, num_nodes=32, bits_per_node=64), range(32), 9, 40),
        "shared": (lambda: SharedRandomness(512, seed=3),
                   ["__shared__", "x", "__shared__"], 7, 100),
        # A short pool (4 bits < cap) sits between full ones; it holds a
        # zero, so its per-bit walk succeeds.
        "pooled-short-lanes": (_pools([64, 4, 64, 64, 3, 64]),
                               [0, 1, 2, 3, 5], 8, 0),
        "duplicates": (lambda: IndependentSource(seed=4),
                       [3, 1, 3, 2, 1, 3], 9, 0),
        "kwise-duplicates": (lambda: KWiseSource(4, num_nodes=8,
                                                 bits_per_node=64, seed=5),
                             [7, 0, 7, 7, 2], 6, 30),
        "crosses-block": (lambda: IndependentSource(seed=12),
                          range(64), 40, 500),
        "no-nodes": (lambda: IndependentSource(seed=1), [], 5, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_node_calls(self, case):
        make, nodes, cap, offset = self.CASES[case]
        assert _assert_geometrics_like_per_bit(
            make, list(nodes), cap, offset) is None

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_raw_blocks_call(self, case, monkeypatch):
        """One ``_raw_bits`` call per draw; lanes at a short stream's end
        read their held prefixes with one more per prefix length (here
        pool 1's 4 bits)."""
        make, nodes, cap, offset = self.CASES[case]
        source = make()
        calls = _count_calls(source, "_raw_bits", monkeypatch)
        source.geometrics(list(nodes), cap, offset)
        assert len(calls) == (2 if case == "pooled-short-lanes" else 1)
        del calls[:]
        source.geometric(list(nodes or [0])[0], cap, offset + cap)
        assert len(calls) == 1

    @pytest.mark.parametrize("source, start, count", [
        (IndependentSource(seed=12), 500, 40),
        (IndependentSource(seed=12), 1020, 600),
        (KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3), 17, 40),
        (KWiseSource(3, num_nodes=2048, bits_per_node=64, seed=2), 60, 4),
        (EpsilonBiasedSource(num_nodes=8, bits_per_node=64, epsilon=0.05,
                             seed=3), 0, 64),
    ])
    def test_raw_blocks_rows_are_raw_block(self, source, start, count):
        """The rows of one multi-lane ``_raw_bits`` call (per-lane starts,
        a node twice) are its one-lane calls and the per-bit bits."""
        nodes = [0, 5, 7, 5]
        starts = np.array([start, max(start - 3, 0), start, start])
        rows = source._raw_bits(nodes, starts, count)
        assert rows.dtype == np.uint8 and rows.shape == (4, count)
        for node, at, row in zip(nodes, starts.tolist(), rows):
            assert row.tolist() == source._raw_bits(
                [node], np.array([at]), count)[0].tolist()
            assert row.tolist() == [reference_bit(source, node, at + i)
                                    for i in range(count)]
        assert source.bits_consumed == 0

    def test_independent_raw_blocks_reads_through_block_cache(self):
        source = IndependentSource(seed=12)
        source._raw_bits([0, 1], np.array([500, 500]), 40)
        assert sorted(source._streams[0]._blocks) == [0, 1]
        assert sorted(source._streams[1]._blocks) == [0, 1]
        # Per-lane starts compute exactly the blocks under each window.
        source._raw_bits([2, 3], np.array([5, 1530]), 20)
        assert sorted(source._streams[2]._blocks) == [0]
        assert sorted(source._streams[3]._blocks) == [2, 3]

    def test_budget_runs_out_mid_call(self):
        make = partial(IndependentSource, seed=8, bit_budget=25)
        error = _assert_geometrics_like_per_bit(make, list(range(30)), 12, 0)
        assert error is not None and error[0] is RandomnessExhausted

    def test_budget_with_prior_reads(self):
        error, _ = assert_like_per_bit(
            partial(IndependentSource, seed=8, bit_budget=40),
            lambda r: [r.bits_block(3, 20, 0),
                       r.geometrics(list(range(30)), 12, 0)])
        assert error is not None and error[0] is RandomnessExhausted

    def test_short_pool_exhausts_mid_call(self):
        # Pool 1 is all ones and shorter than cap: its per-bit walk runs
        # off the end after pool 0 has been metered.
        make = partial(PooledBits, {0: [1, 0] * 8, 1: [1, 1, 1], 2: [0] * 16})
        error = _assert_geometrics_like_per_bit(make, [0, 1, 2], 8, 0)
        assert error == (RandomnessExhausted,
                         "pool 1 has 3 bits; index 3 requested")

    def test_out_of_range_kwise_node_meters_earlier_nodes(self):
        make = partial(KWiseSource, 4, num_nodes=8, bits_per_node=64, seed=3)
        error = _assert_geometrics_like_per_bit(make, [0, 1, 9, 2], 6, 10)
        assert error == (ConfigurationError, "node 9 outside [0, 8)")
        bulk = make()
        with pytest.raises(ConfigurationError, match="node 9"):
            bulk.geometrics([0, 1, 9, 2], 6, 10)
        assert bulk.bits_consumed > 0
        assert list(bulk.nodes_touched()) == [0, 1]

    def test_non_integer_kwise_node_meters_earlier_nodes(self):
        # int("x") fails with a ValueError, not a ReproError: the bulk
        # call must still meter nodes 0 and 1 first, like per-bit reads.
        error = _assert_geometrics_like_per_bit(
            lambda: KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3),
            [0, 1, "x", 2], 6, 10)
        assert error is not None and error[0] is ValueError

    def test_negative_offset_on_kwise(self):
        error = _assert_geometrics_like_per_bit(
            lambda: KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3),
            [0, 1], 6, -2)
        assert error is not None and error[0] is ConfigurationError


def _assert_bits_each_like_per_bit(make, nodes, count, offset):
    """``bits_each`` and per-node ``bits_block`` calls, each on a fresh
    source, against the per-bit reference: same matrix, error, ledger
    and ``bits_consumed``. Returns the error, if any."""
    error, source = assert_like_per_bit(
        make, lambda r: r.bits_each(nodes, count, offset))
    if error is None:
        got = source.bits_each(nodes, count, offset)  # free re-read
        assert got.dtype == np.uint8
        assert got.shape == (len(nodes), max(count, 0))
    scalar, _ = assert_like_per_bit(
        make, lambda r: [r.bits_block(v, count, offset) for v in nodes])
    assert scalar == error
    return error


class TestBitsEachParity:
    """``bits_each`` reads every node's bits with one ``_raw_bits`` call
    and must read like per-bit ``bits_block`` calls."""

    CASES = {
        "independent": (lambda: IndependentSource(seed=8), range(30), 16, 36),
        "crosses-block": (lambda: IndependentSource(seed=12),
                          range(20), 40, 500),
        "kwise-in-range": (lambda: KWiseSource(4, num_nodes=40,
                                               bits_per_node=64, seed=2),
                           range(40), 16, 20),
        # Past the end of a 20-bit stream: the read raises at index 20
        # after metering the prefix.
        "kwise-short-stream": (lambda: KWiseSource(4, num_nodes=8,
                                                   bits_per_node=20, seed=2),
                               range(8), 16, 10),
        "kwise-m18": (lambda: KWiseSource(3, num_nodes=2048,
                                          bits_per_node=64, seed=2),
                      [0, 5, 2047, 900, 5], 16, 11),
        "epsilon-biased": (lambda: EpsilonBiasedSource(
            num_nodes=8, bits_per_node=64, epsilon=0.05, seed=3),
            range(8), 16, 3),
        "pooled": (_pools([64, 40, 64]), [0, 1, 2, 1], 16, 8),
        "pooled-short-pool": (_pools([64, 4, 64]), [0, 1, 2], 8, 0),
        "expand-kwise": (lambda: SharedRandomness(512, seed=6).expand_kwise(
            4, num_nodes=32, bits_per_node=64), range(32), 16, 40),
        "shared": (lambda: SharedRandomness(512, seed=3),
                   ["__shared__", "x", "__shared__"], 7, 100),
        "kwise-duplicates": (lambda: KWiseSource(4, num_nodes=8,
                                                 bits_per_node=64, seed=5),
                             [7, 0, 7, 7, 2], 6, 30),
        "one-bit": (lambda: KWiseSource(4, num_nodes=128, bits_per_node=1,
                                        seed=5), range(128), 1, 0),
        "no-nodes": (lambda: IndependentSource(seed=1), [], 5, 0),
        "no-bits": (lambda: IndependentSource(seed=1), [0, 1], 0, 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_node_calls(self, case):
        make, nodes, count, offset = self.CASES[case]
        error = _assert_bits_each_like_per_bit(make, list(nodes), count,
                                               offset)
        assert (error is not None) == case.endswith(("short-stream",
                                                     "short-pool"))

    @pytest.mark.parametrize("case", ["independent", "kwise-in-range",
                                      "expand-kwise", "pooled"])
    def test_one_raw_blocks_call(self, case, monkeypatch):
        """One ``_raw_bits`` call per draw, scalar or bulk."""
        make, nodes, count, offset = self.CASES[case]
        source = make()
        calls = _count_calls(source, "_raw_bits", monkeypatch)
        source.bits_each(list(nodes), count, offset)
        assert len(calls) == 1
        source.bits_block(list(nodes)[0], count, offset)
        assert len(calls) == 2

    def test_budget_runs_out_mid_call(self):
        make = partial(IndependentSource, seed=8, bit_budget=25)
        error = _assert_bits_each_like_per_bit(make, list(range(30)), 4, 0)
        assert error == (RandomnessExhausted,
                         "bit budget of 25 bits exhausted "
                         "(node 6 requested index 1)")

    def test_budget_with_prior_reads(self):
        error, _ = assert_like_per_bit(
            partial(IndependentSource, seed=8, bit_budget=40),
            lambda r: [r.bits_block(3, 20, 0),
                       r.bits_each(list(range(30)), 6, 0)])
        assert error is not None and error[0] is RandomnessExhausted

    @pytest.mark.parametrize("make", [
        lambda: IndependentSource(seed=8),
        lambda: KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3),
    ])
    def test_negative_offset(self, make):
        error = _assert_bits_each_like_per_bit(make, [0, 1], 6, -2)
        assert error is not None and error[0] is ConfigurationError

    def test_out_of_range_kwise_node_meters_earlier_nodes(self):
        error = _assert_bits_each_like_per_bit(
            lambda: KWiseSource(4, num_nodes=8, bits_per_node=64, seed=3),
            [0, 1, 9, 2], 6, 10)
        assert error is not None and "node 9" in error[1]


def _weak_diameter_oracle(graph: DistributedGraph, members) -> int:
    """Max over members of one single-source BFS each."""
    members = np.asarray(list(members), dtype=np.int64)
    best = 0
    for v in members.tolist():
        lengths = graph.bfs_distances(v)[members]
        if np.any(lengths < 0):
            raise ConfigurationError(
                "weak diameter undefined: nodes in different components")
        best = max(best, int(lengths.max()))
    return best


@st.composite
def _graph_and_members(draw):
    # Sparse, so a dropped arc changes distances; the trailing edgeless
    # nodes are the case a segment reduction's final slot must get right.
    graph = draw(sparse_graphs())
    members = draw(st.lists(st.integers(0, graph.n - 1), max_size=12))
    return graph, members


class TestWeakDiameterOracle:
    """The bitset multi-source BFS against per-member BFS."""

    @settings(max_examples=200)
    @given(_graph_and_members(), st.sampled_from([1, 3, 8, 1024]))
    def test_matches_per_member_bfs(self, case, chunk):
        graph, members = case
        want, want_error = read_outcome(
            lambda: _weak_diameter_oracle(graph, members))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr_module, "WEAK_DIAMETER_CHUNK", chunk)
            got, got_error = read_outcome(lambda: graph.weak_diameter(members))
        assert (got, got_error) == (want, want_error)

    def test_disconnected_members_raise(self):
        g = nx.Graph([(0, 1), (1, 2), (3, 4)])
        graph = DistributedGraph(g)
        with pytest.raises(ConfigurationError,
                           match="weak diameter undefined: nodes in "
                                 "different components"):
            graph.weak_diameter([0, 2, 4])
        assert graph.weak_diameter([0, 2]) == 2

    def test_isolated_nodes(self):
        g = nx.Graph([(1, 2), (2, 3)])
        g.add_nodes_from([0, 4])
        graph = DistributedGraph(g)
        assert graph.weak_diameter([1, 3]) == 2
        assert graph.weak_diameter([0]) == 0
        with pytest.raises(ConfigurationError):
            graph.weak_diameter([0, 4])
        edgeless = DistributedGraph(nx.empty_graph(3))
        assert edgeless.weak_diameter([2, 2]) == 0
        with pytest.raises(ConfigurationError):
            edgeless.weak_diameter([0, 1])

    def test_last_nonempty_segment_before_isolated_nodes(self):
        # Node 2, the last node with neighbours, hears from both 0 and 1
        # even though isolated node 3 follows it.
        g = nx.Graph([(0, 2), (1, 2)])
        g.add_node(3)
        assert DistributedGraph(g).weak_diameter([0, 1]) == 2
        # A star whose hub has the highest non-isolated index.
        star = nx.Graph((leaf, 5) for leaf in range(5))
        star.add_nodes_from([6, 7, 8])
        graph = DistributedGraph(star)
        assert graph.weak_diameter(range(5)) == 2
        assert graph.weak_diameter([0, 5]) == 1
        with pytest.raises(ConfigurationError):
            graph.weak_diameter([0, 7])

    def test_empty_single_and_duplicate_members(self):
        graph = assign(make("grid", 36, seed=5), "random", seed=5)
        assert graph.weak_diameter([]) == 0
        assert graph.weak_diameter([7]) == 0
        assert graph.weak_diameter([7, 7, 7]) == 0
        assert graph.weak_diameter([0, 7, 0, 35, 7]) \
            == _weak_diameter_oracle(graph, [0, 7, 35])

    def test_path_crosses_member_chunk(self):
        graph = DistributedGraph(nx.path_graph(1100))
        assert graph.weak_diameter(range(1100)) == 1099

    def test_farthest_pair_in_second_chunk(self):
        # 1024 leaves (the first chunk) hang off the middle of a path on
        # nodes 1024..1099; only the path's own ends, both in the second
        # chunk, are 75 apart.
        g = nx.path_graph(range(1024, 1100))
        g.add_edges_from((leaf, 1062) for leaf in range(1024))
        graph = DistributedGraph(g)
        assert graph.weak_diameter(range(1100)) == 75
        assert graph.weak_diameter(range(1024)) == 2


class TestCSRDistances:
    def _graphs(self):
        for family, seed in (("grid", 1), ("gnp-sparse", 2), ("tree", 3),
                             ("cliques", 4)):
            yield assign(make(family, 36, seed=seed), "random", seed=seed)
        # A disconnected graph exercises the -1 path.
        g = nx.Graph()
        g.add_edges_from([(0, 1), (1, 2), (3, 4)])
        g.add_node(5)
        yield DistributedGraph(g)

    def test_ball_matches_networkx(self):
        for g in self._graphs():
            view = nx_copy(g)
            for v in (0, g.n // 2, g.n - 1):
                for radius in (0, 1, 2, 5):
                    expected = nx.single_source_shortest_path_length(
                        view, v, cutoff=radius)
                    assert g.ball(v, radius) == dict(expected)

    def test_distance_matches_networkx(self):
        for g in self._graphs():
            view = nx_copy(g)
            for u in (0, g.n - 1):
                for v in range(g.n):
                    try:
                        expected = nx.shortest_path_length(view, u, v)
                    except nx.NetworkXNoPath:
                        expected = None
                    assert g.distance(u, v) == expected

    def test_weak_diameter_matches_pairwise_distances(self):
        g = assign(make("grid", 36, seed=5), "random", seed=5)
        members = [0, 7, 14, 30]
        view = nx_copy(g)
        expected = max(nx.shortest_path_length(view, u, v)
                       for u in members for v in members)
        assert g.weak_diameter(members) == expected
        assert g.weak_diameter([3]) == 0

    def test_csr_graph_ball_agrees_with_distributed_graph(self):
        g = assign(make("gnp-sparse", 40, seed=9), "random", seed=9)
        view = nx_copy(g)
        for v in (0, 17, 39):
            expected = nx.single_source_shortest_path_length(view, v, cutoff=3)
            assert g.csr.ball(v, 3) == g.ball(v, 3) == expected

    def test_bfs_distances_on_nx_labels(self):
        g = nx.relabel_nodes(nx.path_graph(6), {i: f"v{i}" for i in range(6)})
        offsets, indices, nodes = nx_to_csr(g)
        dist = bfs_distances(offsets, indices, nodes.index("v0"))
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_covering_holders_still_cover(self):
        g = assign(make("grid", 36, seed=2), "random", seed=2)
        for h in (1, 2, 3):
            holders = covering_holders(g, h, seed=7)
            source = SparseRandomness(holders, h, seed=7)
            assert source.verify_covering(g)
            # Pairwise spread: sparse style keeps holders > h apart.
            holder_list = sorted(holders)
            for i, a in enumerate(holder_list):
                for b in holder_list[i + 1:]:
                    assert g.distance(a, b) > h
