"""Sinkless orientation and the Lemma 4.1 / Theorem 4.3 machinery."""

import functools
import math

import numpy as np
import pytest
from helpers import per_seed_oracle

from repro.analysis import experiments
from repro.core.derandomization import (
    SEED_CHUNK,
    DerandomizationResult,
    exhaustive_derandomize,
    family_size_bound,
    lemma41_error_threshold,
    lie_about_n,
    seeds_to_failure_curve,
    theorem43_deterministic_time,
    theorem46_N,
)
from repro.core.sinkless import (
    deterministic_orientation,
    is_sinkless,
    randomized_orientation,
    sinks,
)
from repro.core.splitting import random_instance, splits_under_codes
from repro.errors import (
    ConfigurationError,
    DerandomizationFailure,
    InvalidSolution,
)
from repro.graphs import assign, complete_tree, random_regular
from repro.randomness import IndependentSource, SharedRandomness


def splits_on_public_string(inst, shared) -> bool:
    """E7's scalar predicate: one block read of the public string, V-node
    x colored by public bit ``x % seed_bits`` (the oracle for
    :func:`splits_under_codes`)."""
    public = shared.global_bits(min(len(inst.v_side), shared.seed_bits))
    coloring = {x: public[x % shared.seed_bits] for x in inst.v_side}
    return inst.is_satisfied(coloring)


def kernel(seed_bits):
    return functools.partial(splits_under_codes, seed_bits=seed_bits)


def e7_family(family_size):
    """The instances E7 (seed 0) enumerates seeds over for one family size."""
    return [random_instance(12, 24, 8, seed=101 * i)
            for i in range(family_size)]


@functools.lru_cache(maxsize=None)
def e7_oracle_verdicts(family_size, seed_bits):
    """bool[|F|, 2^b]: the scalar predicate on every E7 instance and seed,
    computed once per family and shared by both ``stop_early`` cases."""
    run_all = per_seed_oracle(splits_on_public_string, seed_bits)
    codes = np.arange(1 << seed_bits, dtype=np.int64)
    return np.array([run_all(inst, codes) for inst in e7_family(family_size)])


class TestSinkless:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deterministic_valid_on_regular(self, seed):
        g = assign(random_regular(30, 3, seed=seed), "random", seed=seed)
        orientation, report = deterministic_orientation(g)
        assert is_sinkless(g, orientation)

    def test_deterministic_on_dense(self, dense40):
        orientation, _ = deterministic_orientation(dense40)
        assert is_sinkless(dense40, orientation)

    def test_path_has_no_constrained_nodes(self, path9):
        orientation, _ = deterministic_orientation(path9)
        assert is_sinkless(path9, orientation)  # vacuous: all degrees < 3

    def test_tree_with_many_branching_nodes_fails(self):
        # A complete binary tree of height 2: 3 internal nodes of degree
        # >= 3 but the leaves cannot serve them all... actually Hall may
        # hold; use a star of degree-3 centers sharing leaves: K1,3 with
        # each leaf also degree-1. Simplest guaranteed failure: two
        # degree-3 nodes joined by all three edges is a multigraph, so
        # use the 3-spider: center degree 3, legs length 1 — center can
        # be served. Instead: complete_tree(3, 1) has ONE constrained
        # node; fine. A genuinely unservable case is a tree where
        # constrained nodes outnumber edges not incident to leaves...
        # K1,3 subdivided has no constrained sink issue either. Verify
        # instead that a satisfiable tree is handled.
        g = assign(complete_tree(3, 2), "random", seed=1)
        orientation, _ = deterministic_orientation(g)
        assert is_sinkless(g, orientation)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_converges_and_validates(self, seed):
        g = assign(random_regular(48, 3, seed=seed), "random", seed=seed)
        orientation, report, extra = randomized_orientation(
            g, IndependentSource(seed=100 + seed))
        assert orientation is not None
        assert is_sinkless(g, orientation)
        assert extra["fixup_rounds"] == report.rounds
        assert extra["sink_trajectory"][-1] == 0

    def test_sink_trajectory_monotone_start(self):
        g = assign(random_regular(60, 3, seed=9), "random", seed=9)
        _o, _r, extra = randomized_orientation(g, IndependentSource(seed=9))
        trajectory = extra["sink_trajectory"]
        assert trajectory[0] >= trajectory[-1]

    def test_sinks_helper(self):
        g = assign(random_regular(12, 3, seed=1), "random", seed=1)
        # Orient everything into node 0's direction is messy; instead:
        # all edges from high to low index — node with max index has all
        # out; node 0 has all in, so it is a sink.
        orientation = {}
        for u, v in g.edges():
            a, b = (u, v) if u < v else (v, u)
            orientation[(a, b)] = (b, a)  # high -> low
        assert 0 in sinks(g, orientation)

    def test_is_sinkless_rejects_partial_orientation(self, dense40):
        orientation, _ = deterministic_orientation(dense40)
        orientation.popitem()
        assert not is_sinkless(dense40, orientation)


class TestExhaustiveDerandomization:
    @staticmethod
    def _run(inst, shared):
        coloring = {x: shared.global_bit(x % shared.seed_bits)
                    for x in inst.v_side}
        return inst.is_satisfied(coloring)

    def test_finds_good_seed(self):
        instances = [random_instance(8, 16, 8, seed=s) for s in range(5)]
        result = exhaustive_derandomize(
            per_seed_oracle(self._run, 8), instances, seed_bits=8)
        assert len(result.good_seed) == 8
        assert result.instances == 5
        # Replaying the good seed must succeed everywhere.
        shared = SharedRandomness(8, explicit_bits=result.good_seed)
        assert all(self._run(inst, shared) for inst in instances)

    def test_failure_when_error_too_large(self):
        # With 1 shared bit, all of V gets one color: guaranteed failure.
        instances = [random_instance(4, 8, 4, seed=s) for s in range(3)]
        with pytest.raises(DerandomizationFailure):
            exhaustive_derandomize(
                per_seed_oracle(self._run, 1), instances, seed_bits=1)

    @pytest.mark.parametrize("stop_early", [False, True])
    def test_failure_message(self, stop_early):
        instances = [random_instance(4, 8, 4, seed=s) for s in range(3)]
        worst = 1 if stop_early else 3
        messages = []
        for run_all in (kernel(1), per_seed_oracle(self._run, 1)):
            with pytest.raises(DerandomizationFailure) as info:
                exhaustive_derandomize(run_all, instances, seed_bits=1,
                                       stop_early=stop_early)
            messages.append(str(info.value))
        assert messages == [
            "no seed of 1 bits succeeds on all 3 instances; "
            f"best seed fails {worst} of them"] * 2

    def test_failure_curve(self):
        instances = [random_instance(8, 16, 8, seed=s) for s in range(4)]
        result = exhaustive_derandomize(
            per_seed_oracle(self._run, 6), instances, seed_bits=6)
        curve = seeds_to_failure_curve(result)
        assert sum(curve.values()) == 64
        assert curve.get(0, 0) >= 1

    def test_stop_early(self):
        instances = [random_instance(8, 16, 8, seed=s) for s in range(3)]
        result = exhaustive_derandomize(
            per_seed_oracle(self._run, 8), instances, seed_bits=8,
            stop_early=True)
        assert result.seeds_tried <= 256
        assert result.per_seed_failures[-1] == 0
        assert set(result.per_seed_failures[:-1]) <= {1}

    def test_validates_parameters(self):
        run_all = per_seed_oracle(self._run, 4)
        with pytest.raises(ConfigurationError):
            exhaustive_derandomize(run_all, [], seed_bits=4)
        with pytest.raises(ConfigurationError):
            exhaustive_derandomize(
                run_all, [random_instance(4, 8, 4, seed=1)], seed_bits=30)

    def test_crosses_seed_chunks(self):
        """b = 17 spans two chunks: the counts stitch together exactly."""
        seed_bits = 17
        assert 1 << seed_bits > SEED_CHUNK
        instances = [random_instance(3, 20, 4, seed=s) for s in range(2)]
        codes = np.arange(1 << seed_bits, dtype=np.int64)
        expected = sum((~splits_under_codes(inst, codes, seed_bits)).astype(int)
                       for inst in instances)
        result = exhaustive_derandomize(kernel(seed_bits), instances,
                                        seed_bits)
        assert result.per_seed_failures == expected.tolist()
        assert result.seeds_tried == 1 << seed_bits
        first = int(np.flatnonzero(expected == 0)[0])
        assert result.good_seed == [(first >> i) & 1 for i in range(seed_bits)]

    @pytest.mark.parametrize("stop_early", [False, True])
    def test_good_seed_past_first_chunk(self, stop_early):
        # Instance t fails every code below t, so the first good seed
        # is max(t) = 70000, in the second chunk.
        def run_all(t, codes):
            return codes >= t

        result = exhaustive_derandomize(run_all, [70000, 65536], 17,
                                        stop_early=stop_early)
        assert result.good_seed == [(70000 >> i) & 1 for i in range(17)]
        if stop_early:
            assert result.seeds_tried == 70001
            assert result.per_seed_failures == [1] * 70000 + [0]
        else:
            assert result.seeds_tried == 1 << 17
            assert result.per_seed_failures == (
                [2] * 65536 + [1] * (70000 - 65536)
                + [0] * ((1 << 17) - 70000))


class TestE7BlockRead:
    """E7's bitmask kernel against the scalar per-seed predicates."""

    # The per-bit walk: one global_bit per V-node.
    _per_bit = staticmethod(TestExhaustiveDerandomization._run)

    # (num_u, num_v, degree, seed_bits): more V-nodes than seed bits,
    # as in E7, and fewer.
    SHAPES = [(12, 24, 8, 8), (6, 8, 4, 10)]

    @pytest.mark.parametrize("num_u,num_v,degree,seed_bits", SHAPES)
    def test_same_search_result(self, num_u, num_v, degree, seed_bits):
        instances = [random_instance(num_u, num_v, degree, seed=s)
                     for s in range(4)]
        block = exhaustive_derandomize(kernel(seed_bits), instances,
                                       seed_bits)
        reference = exhaustive_derandomize(
            per_seed_oracle(self._per_bit, seed_bits), instances, seed_bits)
        assert block.per_seed_failures == reference.per_seed_failures
        assert block.good_seed == reference.good_seed
        assert block.seeds_tried == reference.seeds_tried

    @pytest.mark.parametrize("num_u,num_v,degree,seed_bits", SHAPES)
    @pytest.mark.parametrize("pattern", [0, 1, 0b1011001110, 0x2AA])
    def test_same_ledger(self, num_u, num_v, degree, seed_bits, pattern):
        """The scalar paths meter exactly min(|V|, b) public bits, and
        the kernel reads no code bit at or above that index."""
        instances = [random_instance(num_u, num_v, degree, seed=s)
                     for s in range(3)]
        code = pattern & ((1 << seed_bits) - 1)
        bits = [(code >> i) & 1 for i in range(seed_bits)]
        meters = []
        for run in (splits_on_public_string, self._per_bit):
            shared = SharedRandomness(seed_bits, explicit_bits=bits)
            verdicts = [run(inst, shared) for inst in instances]
            meters.append((verdicts, shared.bits_consumed,
                           shared.bits_consumed_by("__shared__")))
        assert meters[0] == meters[1]
        metered = min(num_v, seed_bits)
        assert meters[0][1] == metered
        flipped = np.array([code] + [code ^ (1 << i)
                                     for i in range(metered, 24)])
        for inst, verdict in zip(instances, meters[0][0]):
            assert splits_under_codes(inst, flipped, seed_bits).tolist() == \
                [verdict] * flipped.size

    @pytest.mark.parametrize("stop_early", [False, True])
    @pytest.mark.parametrize("seed_bits", [10, 12])
    @pytest.mark.parametrize("family_size", [4, 16, 64])
    def test_e7_families_match_oracle(self, family_size, seed_bits,
                                      stop_early):
        block = exhaustive_derandomize(kernel(seed_bits),
                                       e7_family(family_size), seed_bits,
                                       stop_early=stop_early)
        verdicts = e7_oracle_verdicts(family_size, seed_bits)
        reference = exhaustive_derandomize(
            lambda i, codes: verdicts[i][codes], range(family_size),
            seed_bits, stop_early=stop_early)
        assert block.per_seed_failures == reference.per_seed_failures
        assert block.good_seed == reference.good_seed
        assert block.seeds_tried == reference.seeds_tried


class TestE7Lemma41:
    """E7 asserts Lemma 4.1's averaging step on every row it prints."""

    def test_rows_satisfy_averaging_step(self):
        table = experiments.e07_derandomize(quick=True)
        for row in table.rows:
            assert row["derandomized"] is True
            assert row["good seeds"] >= 1

    def test_doctored_result_raises(self, monkeypatch):
        # Error 1/(2|F|) < 1/|F| with no seed failing nowhere: averaging
        # says this cannot happen, so E7 must refuse to print the row.
        def doctored(run_all, instances, seed_bits, stop_early=False):
            space = 1 << seed_bits
            return DerandomizationResult(
                seed_bits=seed_bits, good_seed=[0] * seed_bits,
                seeds_tried=space, per_seed_failures=[1] * space,
                instances=2 * len(instances))

        monkeypatch.setattr(experiments, "exhaustive_derandomize", doctored)
        with pytest.raises(InvalidSolution, match="Lemma 4.1"):
            experiments.e07_derandomize(quick=True)


class TestLieAboutN:
    def test_wrapper_passes_claimed_n(self, gnp60):
        def algorithm(graph, claimed_n, seed):
            return claimed_n == 1000, None

        ok, _ = lie_about_n(algorithm, gnp60, claimed_n=1000)
        assert ok

    def test_cannot_understate(self, gnp60):
        with pytest.raises(ConfigurationError):
            lie_about_n(lambda g, n, s: (True, None), gnp60, claimed_n=10)

    def test_engine_integration(self, gnp60):
        """Lying through the engine: nodes' ctx.n is the claimed N."""
        from helpers import NodeProgram, run_program

        class ReportN(NodeProgram):
            def init(self, ctx):
                ctx.finish(ctx.n)
                return {}

        result = run_program(gnp60, ReportN, n_override=6000)
        assert set(result.outputs.values()) == {6000}


class TestClosedForms:
    def test_family_size_grows_quadratically(self):
        assert family_size_bound(20) > family_size_bound(10) * 2
        # Dominated by the n^2/2 term for large n.
        assert abs(family_size_bound(1000) / (1000 * 999 / 2) - 1) < 0.1

    def test_lemma41_threshold_is_negative_log(self):
        assert lemma41_error_threshold(50) == -family_size_bound(50)

    def test_theorem43_time_decreases_in_beta(self):
        assert theorem43_deterministic_time(10 ** 6, 3) > \
            theorem43_deterministic_time(10 ** 6, 8)

    def test_theorem43_validates_beta(self):
        with pytest.raises(ConfigurationError):
            theorem43_deterministic_time(100, 2.0)

    def test_theorem46_N_polylog_friendly(self):
        # log N = (2 log n)^(1/eps): for eps=1/2 that is (2 log n)^2.
        n = 1024
        log_N = theorem46_N(n, 0.5)
        assert log_N == pytest.approx((2 * math.log2(n)) ** 2)

    def test_theorem46_validates_epsilon(self):
        with pytest.raises(ConfigurationError):
            theorem46_N(100, 0.0)
        with pytest.raises(ConfigurationError):
            theorem46_N(100, 1.5)
