"""Adversarial-input invariants: properties that hold for ANY randomness.

The Elkin–Neiman gap rule (m1 - m2 > 1) guarantees, *deterministically*,
that same-phase clusters are connected and pairwise non-adjacent — the
probability only enters for progress, never for validity. These tests
feed hypothesis-chosen (arbitrary, adversarial) radii into the phase
loop and assert the structural invariants directly. Failure injection
for the model/ randomness enforcement lives here too.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition.elkin_neiman import en_phase_loop
from repro.core.decomposition.shared_congest import phase_epoch_decomposition
from repro.errors import (
    BandwidthExceeded,
    ModelViolation,
    RandomnessExhausted,
)
from repro.graphs import make
from repro.randomness import IndependentSource, SparseRandomness
from repro.randomness.pooled import PooledBits

from helpers import nx_to_csr, to_nx


def _clusters_of(assignment):
    clusters = {}
    for node, key in assignment.items():
        clusters.setdefault(key, set()).add(node)
    return clusters


class TestGapRuleIsAdversarialProof:
    @given(data=st.data(), n=st.integers(6, 24), seed=st.integers(0, 100))
    @settings(max_examples=30)
    def test_same_phase_clusters_never_adjacent(self, data, n, seed):
        graph = to_nx(make("gnp-dense", n, seed=seed))
        radii_table = {}

        def draw_radii(nodes, phase):
            for v in nodes:
                radii_table[(v, phase)] = data.draw(
                    st.integers(0, 12), label=f"r{(v, phase)}")
            return np.array([radii_table[(v, phase)] for v in nodes])

        assignment, _remaining, _m = en_phase_loop(
            *nx_to_csr(graph), draw_radii, phases=3, cap=12)
        clusters = _clusters_of(assignment)
        keys = list(clusters)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                if a[0] != b[0]:
                    continue  # different phases may touch
                for x in clusters[a]:
                    for y in clusters[b]:
                        assert not graph.has_edge(x, y), (
                            f"same-phase clusters {a} and {b} adjacent "
                            f"via ({x},{y}) with radii {radii_table}"
                        )

    @given(data=st.data(), n=st.integers(6, 24), seed=st.integers(0, 100))
    @settings(max_examples=30)
    def test_clusters_always_connected(self, data, n, seed):
        graph = to_nx(make("gnp-sparse", n, seed=seed))

        def draw_radii(nodes, phase):
            return np.array([data.draw(st.integers(0, 10),
                                       label=f"r{v},{phase}")
                             for v in nodes])

        assignment, _remaining, _m = en_phase_loop(
            *nx_to_csr(graph), draw_radii, phases=2, cap=10)
        for members in _clusters_of(assignment).values():
            assert nx.is_connected(graph.subgraph(members))

    @given(data=st.data())
    @settings(max_examples=20)
    def test_cluster_radius_bounded_by_center_shift(self, data):
        graph = to_nx(make("grid", 25, seed=1))
        radii = {v: data.draw(st.integers(0, 8), label=f"r{v}")
                 for v in graph.nodes()}
        assignment, _remaining, _m = en_phase_loop(
            *nx_to_csr(graph),
            lambda nodes, p: np.array([radii[v] for v in nodes]),
            phases=1, cap=8)
        for (phase, center), members in _clusters_of(assignment).items():
            sub = graph.subgraph(members)
            lengths = nx.single_source_shortest_path_length(sub, center)
            assert max(lengths.values()) <= radii[center]


class TestFailureInjection:
    def test_congest_violation_surfaces_from_engine(self, path9):
        """A program over budget fails loudly, not silently."""
        from helpers import NodeProgram, SyncEngine

        class TooBig(NodeProgram):
            def init(self, ctx):
                return {NodeProgram.BROADCAST: tuple(range(500))}

            def step(self, ctx, round_index, inbox):
                ctx.finish(None)
                return {}

        engine = SyncEngine(path9, lambda _v: TooBig(), model="CONGEST",
                            bandwidth_bits=64)
        with pytest.raises(BandwidthExceeded):
            engine.run()

    def test_sparse_model_blocks_cheating_algorithms(self, grid36):
        """An algorithm reading non-holder bits is stopped by the source."""
        source = SparseRandomness.for_graph(grid36, h=2, seed=1)
        outsider = next(v for v in grid36.nodes()
                        if v not in source.holders)
        with pytest.raises(ModelViolation):
            source.bit(outsider, 0)

    def test_pool_exhaustion_is_loud(self):
        pools = PooledBits({"c": [1, 0, 1]})
        pools.bits("c", 3)
        with pytest.raises(RandomnessExhausted):
            pools.bit("c", 3)

    def test_budgeted_source_stops_overdraw_mid_algorithm(self, cycle12):
        """An EN run on a tiny budget fails with the budget error."""
        from repro.core.decomposition import elkin_neiman

        source = IndependentSource(seed=1, bit_budget=5)
        with pytest.raises(RandomnessExhausted):
            elkin_neiman(cycle12, source)

    def test_phase_epoch_rejects_bad_parameters(self, cycle12):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            phase_epoch_decomposition(
                cycle12, lambda v, p, e, t: False, lambda v, p, e: 1,
                max_phases=0, epochs=2, cap=2)

    def test_engine_detects_runaway_algorithms(self, path9):
        from helpers import NodeProgram, run_program

        class Spinner(NodeProgram):
            def step(self, ctx, round_index, inbox):
                return {}

        with pytest.raises(ModelViolation):
            run_program(path9, Spinner, max_rounds=5)
