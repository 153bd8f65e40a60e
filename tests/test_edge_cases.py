"""Edge cases: disconnected graphs, tiny graphs, and the engine fix-up."""

import networkx as nx
import pytest

from repro.core.decomposition import (
    deterministic_decomposition,
    elkin_neiman,
    shared_randomness_decomposition,
)
from repro.core.mis import is_valid_mis, luby_mis, mis_via_decomposition
from repro.core.sinkless import is_sinkless, randomized_orientation_engine
from repro.graphs import random_regular, assign
from repro.randomness import IndependentSource
from repro.sim.graph import DistributedGraph


def disconnected_graph() -> DistributedGraph:
    raw = nx.Graph()
    raw.add_edges_from(nx.path_graph(6).edges())
    raw.add_edges_from((u + 10, v + 10) for u, v in nx.cycle_graph(5).edges())
    raw.add_node(20)  # an isolated node
    return DistributedGraph(raw, uid_seed=3)


class TestDisconnectedGraphs:
    def test_en_handles_components(self):
        g = disconnected_graph()
        dec, _r, _e = elkin_neiman(g, IndependentSource(seed=4),
                                   finish="singletons")
        assert dec.violations(g) == []
        # No cluster spans components.
        comps = g.connected_components()
        for members in dec.clusters().values():
            assert any(members <= comp for comp in comps)

    def test_deterministic_handles_components(self):
        g = disconnected_graph()
        dec, _ = deterministic_decomposition(g)
        assert dec.violations(g) == []

    def test_shared_randomness_handles_components(self):
        g = disconnected_graph()
        dec, _r, _e = shared_randomness_decomposition(g, seed=5, strict=False)
        assert dec is not None
        assert dec.violations(g) == []

    def test_luby_handles_components(self):
        g = disconnected_graph()
        result = luby_mis(g, IndependentSource(seed=6))
        assert is_valid_mis(g, result.outputs)
        assert result.outputs[g.index_of_uid(g.uid(
            [v for v in g.nodes() if g.degree(v) == 0][0]))] is True

    def test_mis_via_decomposition_handles_components(self):
        g = disconnected_graph()
        dec, _ = deterministic_decomposition(g)
        flags, _ = mis_via_decomposition(g, dec)
        assert is_valid_mis(g, flags)


class TestTinyGraphs:
    def test_single_node_everything(self):
        g = DistributedGraph(nx.path_graph(1))
        dec, _ = deterministic_decomposition(g)
        assert dec.is_valid(g)
        dec2, _r, _e = elkin_neiman(g, IndependentSource(seed=1),
                                    finish="singletons")
        assert dec2.is_valid(g)
        result = luby_mis(g, IndependentSource(seed=1))
        assert result.outputs[0] is True

    def test_single_edge(self):
        g = DistributedGraph(nx.path_graph(2), uid_seed=2)
        result = luby_mis(g, IndependentSource(seed=2))
        assert sorted(result.outputs.values()) == [False, True]

    def test_two_isolated_nodes(self):
        raw = nx.Graph()
        raw.add_nodes_from([0, 1])
        g = DistributedGraph(raw)
        result = luby_mis(g, IndependentSource(seed=3))
        assert all(result.outputs.values())


class TestEngineSinkless:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_engine_fixup_valid(self, seed):
        g = assign(random_regular(36, 3, seed=seed), "random", seed=seed)
        orientation, result = randomized_orientation_engine(
            g, IndependentSource(seed=50 + seed))
        assert is_sinkless(g, orientation)

    def test_congest_message_sizes(self):
        from repro.sim.messages import congest_limit

        g = assign(random_regular(24, 3, seed=9), "random", seed=9)
        _o, result = randomized_orientation_engine(
            g, IndependentSource(seed=9))
        assert result.report.max_message_bits <= congest_limit(g.n)

    def test_rounds_bounded_by_horizon(self):
        g = assign(random_regular(24, 3, seed=2), "random", seed=2)
        _o, result = randomized_orientation_engine(
            g, IndependentSource(seed=2), horizon=40)
        assert result.report.rounds <= 42

    def test_edge_views_consistent(self):
        g = assign(random_regular(30, 3, seed=4), "random", seed=4)
        orientation, _res = randomized_orientation_engine(
            g, IndependentSource(seed=4))
        # Every edge appears exactly once with a consistent direction.
        assert len(orientation) == sum(1 for _ in g.edges())


class TestCeilLog2:
    def test_matches_the_float_form_below_2_to_49(self):
        """The integer log n equals ``max(1, ceil(log2(max(2, x))))``
        wherever a double can tell 2^k from 2^k + 1."""
        import math

        from repro.sim.messages import ceil_log2

        edges = [x for k in range(49) for x in (2 ** k - 1, 2 ** k, 2 ** k + 1)]
        for x in [-3, 0, *range(1, 300), *edges]:
            assert ceil_log2(x) == max(1, math.ceil(math.log2(max(2, x)))), x

    def test_exact_past_double_precision(self):
        from repro.sim.messages import ceil_log2

        for k in (49, 53, 60, 100):
            assert ceil_log2(2 ** k) == k
            assert ceil_log2(2 ** k + 1) == k + 1
