"""The round semantics every engine is held to: delivery, enforcement,
lying about n, on the reference ``SyncEngine`` of ``helpers`` (the
per-node oracle ArrayEngine's parity suites compare against).
"""

import pytest

from helpers import NodeProgram, SyncEngine, run_program
from repro.errors import BandwidthExceeded, ConfigurationError, ModelViolation
from repro.randomness import IndependentSource
from repro.sim import CONGEST, LOCAL
from repro.sim.messages import congest_limit, message_bits


class Echo(NodeProgram):
    """Sends its UID once; finishes with the sorted UIDs it heard."""

    def init(self, ctx):
        ctx.state["heard"] = []
        return {NodeProgram.BROADCAST: ctx.uid}

    def step(self, ctx, round_index, inbox):
        ctx.state["heard"].extend(inbox.values())
        if round_index >= 1:
            ctx.finish(tuple(sorted(ctx.state["heard"])))
        return {}


class TestDelivery:
    def test_messages_arrive_next_round(self, cycle12):
        result = run_program(cycle12, Echo)
        for v in cycle12.nodes():
            expected = tuple(sorted(cycle12.uid(u)
                                    for u in cycle12.neighbors(v)))
            assert result.outputs[v] == expected

    def test_round_and_message_counts(self, cycle12):
        result = run_program(cycle12, Echo)
        assert result.report.rounds == 1
        assert result.report.messages == 12 * 2
        assert result.report.total_bits > 0

    def test_unicast_targets(self, path9):
        class SendRight(NodeProgram):
            def init(self, ctx):
                right = [u for u in ctx.neighbors if u > ctx.v]
                return {u: ctx.uid for u in right}

            def step(self, ctx, round_index, inbox):
                ctx.finish(sorted(inbox.values()))
                return {}

        result = run_program(path9, SendRight)
        assert result.outputs[0] == []
        for v in range(1, 9):
            assert result.outputs[v] == [path9.uid(v - 1)]


    @pytest.mark.parametrize("broadcast_first", [True, False])
    def test_mixed_outbox_explicit_wins_either_key_order(
            self, cycle12, broadcast_first):
        """A broadcast plus an explicit target sends one message per
        neighbor, the explicit payload winning whatever the key order."""

        class MixedSend(NodeProgram):
            def init(self, ctx):
                if broadcast_first:
                    return {NodeProgram.BROADCAST: 1, ctx.neighbors[0]: 2}
                return {ctx.neighbors[0]: 2, NodeProgram.BROADCAST: 1}

            def step(self, ctx, round_index, inbox):
                ctx.finish(dict(inbox))
                return {}

        result = run_program(cycle12, MixedSend, model=CONGEST)
        assert result.report.messages == 12 * 2
        for v, payloads in result.outputs.items():
            for u in cycle12.neighbors(v):
                explicit = cycle12.neighbors(u)[0] == v
                assert payloads[u] == (2 if explicit else 1)


class TestEnforcement:
    def test_non_neighbor_send_rejected(self, path9):
        class Cheat(NodeProgram):
            def init(self, ctx):
                return {}

            def step(self, ctx, round_index, inbox):
                far = (ctx.v + 4) % 9
                return {far: 1}

        with pytest.raises(ModelViolation):
            run_program(path9, Cheat)

    def test_congest_bandwidth_enforced(self, path9):
        class Flood(NodeProgram):
            def init(self, ctx):
                return {NodeProgram.BROADCAST: "x" * 5000}

            def step(self, ctx, round_index, inbox):
                ctx.finish(None)
                return {}

        with pytest.raises(BandwidthExceeded):
            run_program(path9, Flood, model=CONGEST)

    def test_congest_bandwidth_enforced_on_unicast(self, path9):
        class BigUnicast(NodeProgram):
            def init(self, ctx):
                return {ctx.neighbors[0]: "y" * 4096}

        with pytest.raises(BandwidthExceeded):
            run_program(path9, BigUnicast, model=CONGEST)

    def test_local_model_allows_big_messages(self, path9):
        class Flood(NodeProgram):
            def init(self, ctx):
                return {NodeProgram.BROADCAST: "x" * 5000}

            def step(self, ctx, round_index, inbox):
                ctx.finish(None)
                return {}

        result = run_program(path9, Flood, model=LOCAL)
        assert result.report.max_message_bits > 1000

    def test_max_rounds_guard(self, path9):
        class Forever(NodeProgram):
            def step(self, ctx, round_index, inbox):
                return {}

        with pytest.raises(ModelViolation):
            run_program(path9, Forever, max_rounds=10)

    def test_uniform_algorithm_cannot_read_n(self, path9):
        class PeekN(NodeProgram):
            def init(self, ctx):
                ctx.finish(ctx.n)
                return {}

        with pytest.raises(ModelViolation):
            run_program(path9, PeekN, uniform=True)

    def test_randomness_requires_source(self, path9):
        class NeedsBits(NodeProgram):
            def init(self, ctx):
                ctx.finish(ctx.rand_bit())
                return {}

        with pytest.raises(ModelViolation):
            run_program(path9, NeedsBits)

    def test_unknown_model_rejected(self, path9):
        with pytest.raises(ConfigurationError):
            SyncEngine(path9, lambda v: Echo(), model="QUANTUM")


class TestLieAboutN:
    def test_nodes_see_the_claimed_n(self, path9):
        class ReportN(NodeProgram):
            def init(self, ctx):
                ctx.finish(ctx.n)
                return {}

        result = run_program(path9, ReportN, n_override=1000)
        assert all(out == 1000 for out in result.outputs.values())

    def test_cannot_understate_n(self, path9):
        with pytest.raises(ConfigurationError):
            SyncEngine(path9, lambda v: Echo(), n_override=3)

    def test_bandwidth_scales_with_claimed_n(self, path9):
        small = SyncEngine(path9, lambda v: Echo())
        big = SyncEngine(path9, lambda v: Echo(), n_override=10 ** 6)
        assert big.bandwidth > small.bandwidth


class TestDeterminism:
    def test_same_seed_same_run(self, gnp60):
        class Coin(NodeProgram):
            def init(self, ctx):
                return {}

            def step(self, ctx, round_index, inbox):
                ctx.finish(tuple(ctx.rand_bits(8)))
                return {}

        r1 = run_program(gnp60, Coin, source=IndependentSource(seed=3))
        r2 = run_program(gnp60, Coin, source=IndependentSource(seed=3))
        assert r1.outputs == r2.outputs

    def test_randomness_bits_metered(self, path9):
        class Coin(NodeProgram):
            def init(self, ctx):
                return {}

            def step(self, ctx, round_index, inbox):
                ctx.finish(tuple(ctx.rand_bits(4)))
                return {}

        result = run_program(path9, Coin, source=IndependentSource(seed=1))
        assert result.report.randomness_bits == 9 * 4


class TestMessageBits:
    def test_payload_sizes(self):
        assert message_bits(None) == 1
        assert message_bits(True) == 1
        assert message_bits(0) == 2
        assert message_bits(255) == 9
        assert message_bits(1.5) == 64
        assert message_bits("ab") == 18
        assert message_bits((1, 2)) > message_bits(1) + message_bits(2)
        assert message_bits({"k": 1}) > 0
        assert message_bits(frozenset({3})) > 0

    def test_unencodable_payload(self):
        with pytest.raises(ModelViolation):
            message_bits(object())

    def test_congest_limit_logarithmic(self):
        assert congest_limit(2 ** 20) == 32 * 20
        assert congest_limit(16) < congest_limit(2 ** 20)
