"""FastEngine must be observationally identical to SyncEngine.

The batch engine is only allowed to be *faster*: for any node program,
graph, model, and randomness seed, outputs and the full cost report
(rounds, messages, total/max bits, randomness bits) must match the
reference engine bit for bit. These tests sweep every named graph
family in both LOCAL and CONGEST with deterministic and randomized
programs, plus the engine's edge-case semantics (lying about n,
uniformity, bandwidth and addressing violations).
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import BFSTree, FloodMin, LubyMIS, SyncEngine, family_graphs
from repro.core.mis import is_valid_mis
from repro.errors import BandwidthExceeded, ConfigurationError, ModelViolation
from repro.randomness import IndependentSource
from repro.sim import CONGEST, LOCAL, FastEngine
from repro.sim.node import NodeProgram


def run_both(graph, factory, model, seed=None, **kwargs):
    """Run both engines with independent-but-identical sources."""
    src1 = IndependentSource(seed=seed) if seed is not None else None
    src2 = IndependentSource(seed=seed) if seed is not None else None
    ref = SyncEngine(graph, factory, source=src1, model=model, **kwargs).run()
    fast = FastEngine(graph, factory, source=src2, model=model, **kwargs).run()
    return ref, fast


def assert_identical(ref, fast):
    assert fast.outputs == ref.outputs
    assert dataclasses.asdict(fast.report) == dataclasses.asdict(ref.report)


@pytest.mark.parametrize("model", [LOCAL, CONGEST])
class TestEquivalenceAcrossFamilies:
    def test_flood_min(self, model):
        for _name, g in family_graphs(36, seed=11):
            assert_identical(*run_both(g, lambda _v: FloodMin(6), model))

    def test_bfs_tree(self, model):
        for _name, g in family_graphs(36, seed=12):
            factory = lambda _v: BFSTree({0, 5}, g.n)  # noqa: E731
            assert_identical(*run_both(g, factory, model))

    def test_luby_mis(self, model):
        for _name, g in family_graphs(36, seed=13):
            ref, fast = run_both(g, lambda _v: LubyMIS(), model, seed=97)
            assert_identical(ref, fast)
            assert is_valid_mis(g, fast.outputs)


class TestEquivalenceSemantics:
    def test_lie_about_n(self, gnp60):
        ref, fast = run_both(gnp60, lambda _v: LubyMIS(), CONGEST,
                             seed=5, n_override=4 * gnp60.n)
        assert_identical(ref, fast)

    def test_n_override_below_n_rejected(self, gnp60):
        with pytest.raises(ConfigurationError):
            FastEngine(gnp60, lambda _v: FloodMin(2), n_override=gnp60.n - 1)

    def test_uniform_denies_n(self, path9):
        class ReadN(NodeProgram):
            def init(self, ctx):
                ctx.n  # must raise
                ctx.finish(None)

        with pytest.raises(ModelViolation):
            FastEngine(path9, lambda _v: ReadN(), uniform=True).run()

    def test_bandwidth_enforced_on_broadcast(self, path9):
        class BigBroadcast(NodeProgram):
            def init(self, ctx):
                return {NodeProgram.BROADCAST: "x" * 4096}

        with pytest.raises(BandwidthExceeded):
            FastEngine(path9, lambda _v: BigBroadcast(), model=CONGEST).run()
        # ... but LOCAL allows it, exactly like the reference engine.
        ref, fast = run_both(path9, lambda _v: _FinishAfterBig(), LOCAL)
        assert_identical(ref, fast)

    def test_bandwidth_enforced_on_unicast(self, path9):
        class BigUnicast(NodeProgram):
            def init(self, ctx):
                if ctx.neighbors:
                    return {ctx.neighbors[0]: "y" * 4096}
                ctx.finish(None)
                return {}

        with pytest.raises(BandwidthExceeded):
            FastEngine(path9, lambda _v: BigUnicast(), model=CONGEST).run()

    def test_non_neighbor_send_rejected(self, path9):
        class BadSend(NodeProgram):
            def init(self, ctx):
                return {10 ** 9: 1}

        with pytest.raises(ModelViolation):
            FastEngine(path9, lambda _v: BadSend()).run()

    def test_mixed_broadcast_and_unicast(self, cycle12):
        class MixedSend(NodeProgram):
            def init(self, ctx):
                # Broadcast plus an overriding unicast to one neighbor:
                # the engines must dedup to one message per target.
                return {NodeProgram.BROADCAST: 1, ctx.neighbors[0]: 2}

            def step(self, ctx, round_index, inbox):
                ctx.finish(sorted(inbox.items()))
                return {}

        assert_identical(*run_both(cycle12, lambda _v: MixedSend(), CONGEST))

    @pytest.mark.parametrize("broadcast_first", [True, False])
    def test_mixed_outbox_explicit_wins_either_key_order(
            self, cycle12, broadcast_first):
        """Explicit targets override the broadcast payload regardless of
        dict insertion order — the semantics are pinned, not an accident
        of iteration order, and identical in both engines."""

        class MixedSend(NodeProgram):
            def init(self, ctx):
                if broadcast_first:
                    return {NodeProgram.BROADCAST: 1, ctx.neighbors[0]: 2}
                return {ctx.neighbors[0]: 2, NodeProgram.BROADCAST: 1}

            def step(self, ctx, round_index, inbox):
                ctx.finish(sorted(inbox.items()))
                return {}

        ref, fast = run_both(cycle12, lambda _v: MixedSend(), CONGEST)
        assert_identical(ref, fast)
        # On a cycle every node's first neighbor sends it the explicit
        # payload; the other neighbor's broadcast still arrives.
        for v, received in fast.outputs.items():
            payloads = dict(received)
            explicit_senders = [u for u in cycle12.neighbors(v)
                                if cycle12.neighbors(u)[0] == v]
            for u in explicit_senders:
                assert payloads[u] == 2
            for u in set(cycle12.neighbors(v)) - set(explicit_senders):
                assert payloads[u] == 1

    def test_reusable_csr_across_runs(self, gnp60):
        csr = gnp60.csr
        first = FastEngine(gnp60, lambda _v: FloodMin(4), csr=csr).run()
        second = FastEngine(gnp60, lambda _v: FloodMin(4), csr=csr).run()
        assert first.outputs == second.outputs
        ref = SyncEngine(gnp60, lambda _v: FloodMin(4)).run()
        assert_identical(ref, second)

    def test_csr_size_mismatch_rejected(self, gnp60, path9):
        with pytest.raises(ConfigurationError):
            FastEngine(gnp60, lambda _v: FloodMin(1),
                       csr=path9.csr)

    def test_csr_from_different_graph_rejected(self):
        from repro.graphs import assign, make

        # Same n, different topology/UIDs: the cached-CSR sanity check
        # must reject it instead of silently simulating the wrong graph.
        g1 = assign(make("gnp-sparse", 30, seed=1), "random", seed=1)
        g2 = assign(make("gnp-sparse", 30, seed=2), "random", seed=2)
        with pytest.raises(ConfigurationError):
            FastEngine(g1, lambda _v: FloodMin(1),
                       csr=g2.csr)

    def test_max_rounds_guard(self, path9):
        class Forever(NodeProgram):
            def init(self, ctx):
                return {NodeProgram.BROADCAST: 0}

            def step(self, ctx, round_index, inbox):
                return {NodeProgram.BROADCAST: 0}

        with pytest.raises(ModelViolation):
            FastEngine(path9, lambda _v: Forever(), max_rounds=10).run()


class _FinishAfterBig(NodeProgram):
    def init(self, ctx):
        return {NodeProgram.BROADCAST: "x" * 4096}

    def step(self, ctx, round_index, inbox):
        ctx.finish(len(inbox))
        return {}
