"""Property tests: a DistributedGraph's CSR is a faithful copy of its input.

For arbitrary graphs (random G(n, p) plus the named families),
``graph.csr`` must reproduce a reference adjacency built here straight
from the networkx input — degrees, sorted neighbor lists, UID
assignment and edge set — and ``graph.edges()`` must keep the input's
edge order; construction must be deterministic (round-trip stable);
the shared arrays must be read-only; and the validation in the
``CSRGraph`` constructor must reject malformed arrays.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.graphs import FAMILIES, assign, make
from repro.sim.batch import CSRGraph
from repro.sim.batch.csr import (bfs_distances, disjoint_union,
                                 distances_to_ball)
from repro.sim.graph import DistributedGraph, EdgeList

from helpers import family_graphs, sparse_graphs, to_nx


@st.composite
def sources(draw):
    """Random connected-or-not networkx graphs plus a UID seed."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    uid_seed = draw(st.integers(min_value=0, max_value=10_000))
    return nx.gnp_random_graph(n, p, seed=graph_seed), uid_seed


def reference_adjacency(source: nx.Graph):
    """Label -> index map and sorted index neighbor lists, the slow way."""
    index_of = {label: i for i, label in enumerate(sorted(source.nodes()))}
    adjacency = [[] for _ in index_of]
    for label, i in index_of.items():
        adjacency[i] = sorted(index_of[u] for u in source.neighbors(label))
    return index_of, adjacency


def assert_matches(graph: DistributedGraph, source: nx.Graph):
    index_of, adjacency = reference_adjacency(source)
    csr = graph.csr
    assert csr.n == graph.n == len(adjacency)
    assert csr.m == graph.m == source.number_of_edges()
    degrees = [len(a) for a in adjacency]
    assert csr.offsets.tolist() == np.cumsum([0] + degrees).tolist()
    assert csr.indices.tolist() == [u for a in adjacency for u in a]
    for v in graph.nodes():
        assert csr.degree(v) == graph.degree(v) == degrees[v]
        assert csr.neighbor_list(v) == graph.neighbors(v) == tuple(adjacency[v])
        assert list(csr.neighbors(v)) == adjacency[v]
        assert csr.uid(v) == graph.uid(v)
        assert csr.index_of_uid(graph.uid(v)) == v
    assert csr.max_degree() == graph.max_degree() == max(degrees)
    assert csr.uid_bits() == graph.uid_bits()
    expected_edges = [tuple(sorted((index_of[a], index_of[b])))
                      for a, b in source.edges()]
    assert list(graph.edges()) == expected_edges  # input order, u < v
    assert sorted(csr.edges()) == sorted(expected_edges)


@given(sources())
def test_csr_matches_source(case):
    source, uid_seed = case
    assert_matches(DistributedGraph(source, uid_seed=uid_seed), source)


@given(sources())
def test_round_trip_is_stable(case):
    source, uid_seed = case
    first = DistributedGraph(source, uid_seed=uid_seed).csr
    second = DistributedGraph(source, uid_seed=uid_seed).csr
    assert first == second
    assert np.array_equal(first.offsets, second.offsets)
    assert np.array_equal(first.indices, second.indices)
    assert first.uids == second.uids


def test_every_family_matches():
    for name in sorted(FAMILIES):
        for n in (30, 200):
            source = make(name, n, seed=7)
            assert_matches(assign(source, "random", seed=7), to_nx(source))


def test_degrees_are_offset_differences():
    graph = assign(make("gnp-dense", 30, seed=3), "random", seed=3)
    csr = graph.csr
    assert np.array_equal(csr.degrees, np.diff(csr.offsets))
    assert int(csr.offsets[-1]) == 2 * csr.m


def test_shared_arrays_are_read_only():
    graph = assign(make("cycle", 12), "random", seed=3)
    csr = graph.csr
    for array in (csr.offsets, csr.indices, csr.degrees, csr.uid_array):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert csr.indices[0] == 1  # nothing was written


def test_self_loops_rejected():
    with pytest.raises(ConfigurationError, match="self-loops"):
        DistributedGraph(nx.Graph([(0, 1), (1, 1)]))
    with pytest.raises(ConfigurationError, match="self-loops"):
        DistributedGraph(EdgeList(2, [(0, 1), (1, 1)]))


def test_edge_list_refuses_what_a_simple_graph_cannot_hold():
    with pytest.raises(ConfigurationError, match="duplicate"):
        DistributedGraph(EdgeList(3, [(0, 1), (1, 2), (1, 0)]))
    with pytest.raises(ConfigurationError, match="outside"):
        DistributedGraph(EdgeList(3, [(0, 1), (1, 3)]))
    with pytest.raises(ConfigurationError, match="at least one node"):
        DistributedGraph(EdgeList(0, []))


@given(sources())
def test_edge_list_input_matches_its_networkx_graph(case):
    """An EdgeList of a graph's edges builds what that networkx graph
    builds: same CSR, UIDs and (u-major) edge order."""
    source, uid_seed = case
    edges = EdgeList(source.number_of_nodes(), list(source.edges()))
    graph = DistributedGraph(edges, uid_seed=uid_seed)
    assert_matches(graph, source)
    assert graph.csr == DistributedGraph(source, uid_seed=uid_seed).csr


class TestValidation:
    def test_rejects_bad_offsets(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(np.array([1, 2]), np.array([0]), (1, 2))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(np.array([0, 2, 1, 4]), np.arange(4) % 3, (1, 2, 3))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(np.array([0, 1, 2]), np.array([5, 0]), (1, 2))

    def test_rejects_duplicate_uids(self):
        with pytest.raises(ConfigurationError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), (7, 7))

    def test_unhashable(self):
        csr = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), (4, 9))
        with pytest.raises(TypeError):
            hash(csr)


class TestBall:
    """``CSRGraph.ball``, a BFS over the ball only, against the full
    ``bfs_distances`` it replaced: same dict, same key order."""

    @pytest.mark.parametrize("name,graph", list(family_graphs(40, seed=3)))
    def test_matches_full_bfs_on_families(self, name, graph):
        csr = graph.csr
        for v in range(csr.n):
            for radius in range(4):
                want = distances_to_ball(
                    bfs_distances(csr.offsets, csr.indices, v, radius))
                got = csr.ball(v, radius)
                assert list(got.items()) == list(want.items()), (name, v)

    @given(sparse_graphs(), st.integers(0, 4))
    def test_matches_full_bfs_with_isolated_nodes(self, graph, radius):
        csr = graph.csr
        for v in range(csr.n):
            want = distances_to_ball(
                bfs_distances(csr.offsets, csr.indices, v, radius))
            assert list(csr.ball(v, radius).items()) == list(want.items())


class TestDisjointUnion:
    @given(st.lists(sparse_graphs(max_nodes=12), max_size=4))
    def test_blocks_are_the_parts(self, graphs):
        parts = [(g.csr.offsets, g.csr.indices) for g in graphs]
        offsets, indices, bounds = disjoint_union(parts)
        assert bounds.tolist() == [0] + np.cumsum(
            [g.n for g in graphs]).tolist()
        assert offsets.size == bounds[-1] + 1
        for b, g in enumerate(graphs):
            lo, hi = bounds[b], bounds[b + 1]
            assert (offsets[lo:hi + 1] - offsets[lo]).tolist() == \
                g.csr.offsets.tolist()
            arcs = indices[offsets[lo]:offsets[hi]]
            assert (arcs - lo).tolist() == g.csr.indices.tolist()

    def test_empty(self):
        offsets, indices, bounds = disjoint_union([])
        assert (offsets.tolist(), indices.tolist(), bounds.tolist()) == (
            [0], [], [0])
