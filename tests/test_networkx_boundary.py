"""networkx is an input format only: the boundary guard, and the CSR
ports of the algorithms that used to run on a networkx copy, held to
those networkx implementations (kept in ``helpers``) on every family
and on hypothesis graphs with trailing isolated nodes."""

import ast
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    nx_copy,
    nx_to_csr,
    reference_cluster_adjacency,
    reference_covering_holders,
    reference_deterministic_decomposition,
    reference_shattering,
    reference_sparse_bits,
    reference_tree_orientation,
    reference_verify_covering,
    sparse_graphs,
)
from repro.core.decomposition import (
    deterministic_decomposition,
    gather_bits,
    shattering_decomposition,
    sparse_bits_decomposition,
)
from repro.core.ruling_sets import (
    cluster_adjacency,
    greedy_ruling_set,
    voronoi_clusters,
)
from repro.core.sinkless import tree_orientation
from repro.errors import ConfigurationError
from repro.graphs import FAMILIES, assign, make
from repro.randomness import IndependentSource, SparseRandomness, covering_holders
from repro.sim.batch.csr import bfs_distances
from repro.sim.graph import DistributedGraph

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The only modules that may import networkx, each lazily inside one
#: function: the generators (for ``expander`` alone) and the centralized
#: bipartite-matching baseline. ``test_import_guard.py`` checks that no
#: table run loads it.
NETWORKX_MODULES = {
    "repro/graphs/generators.py",
    "repro/core/sinkless.py",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC.parent).as_posix(), ast.parse(
            path.read_text(), filename=str(path))


class TestBoundary:
    def test_networkx_imports_are_pinned(self):
        importing = set()
        for name, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    roots = [node.module or ""]
                else:
                    continue
                if any(r.split(".")[0] == "networkx" for r in roots):
                    importing.add(name)
        assert importing == NETWORKX_MODULES

    def test_nothing_reads_a_networkx_view(self):
        readers = [f"{name}:{node.lineno}" for name, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "nx"]
        assert readers == []


def family_cases():
    for name in sorted(FAMILIES):
        for n in (30, 200):
            yield pytest.param(name, n, id=f"{name}-{n}")


def _family(name, n):
    return assign(make(name, n, seed=4), "random", seed=4)


def canonical(cluster_of, color_of):
    """The partition into clusters and its grouping into color classes,
    free of cluster and color ids."""
    clusters = {}
    for v, c in cluster_of.items():
        clusters.setdefault(c, set()).add(v)
    classes = {}
    for c, members in clusters.items():
        classes.setdefault(color_of[c], set()).add(frozenset(members))
    return ({frozenset(m) for m in clusters.values()},
            {frozenset(k) for k in classes.values()})


def _outcome(call):
    try:
        return call(), None
    except ConfigurationError as error:
        return None, str(error)


def check_deterministic(graph):
    dec, _report = deterministic_decomposition(graph)
    cluster_of, color_of = reference_deterministic_decomposition(graph)
    # Clusters are numbered in carving order in both.
    assert dec.cluster_of == cluster_of
    assert dec.color_of == color_of


def check_cluster_adjacency(graph):
    centers, _report = greedy_ruling_set(graph, alpha=3)
    full = voronoi_clusters(graph, centers)
    partial = {v: c for v, c in full.items() if v % 3}
    for assignment in (full, partial):
        offsets, indices, got = cluster_adjacency(graph, assignment)
        want = nx_to_csr(reference_cluster_adjacency(graph, assignment))
        assert offsets.tolist() == want[0].tolist()
        assert indices.tolist() == want[1].tolist()
        assert got.tolist() == want[2]


def check_tree_orientation(graph):
    for min_degree in (0, 2, 3):
        got, got_error = _outcome(lambda: tree_orientation(graph, min_degree))
        want, want_error = _outcome(
            lambda: reference_tree_orientation(graph, min_degree))
        assert got_error == want_error
        if got is not None:
            assert got[0] == want[0]
            assert got[1].rounds == want[1]


def check_covering(graph):
    for h in (1, 2, 3):
        holders = covering_holders(graph, h, seed=h)
        assert holders == reference_covering_holders(graph, h, seed=h)
        sparse = {v for v in holders if v % 2}
        for candidate in (holders, sparse or {0}, {0, graph.n + 5}):
            source = SparseRandomness(candidate, h)
            assert source.verify_covering(graph) == \
                reference_verify_covering(graph, candidate, h)


def check_shattering(graph, seed):
    got, _report, extra = shattering_decomposition(
        graph, IndependentSource(seed=seed), en_phases=1, cap=2)
    want = reference_shattering(graph, IndependentSource(seed=seed),
                                en_phases=1, cap=2)
    assert canonical(got.cluster_of, got.color_of) == canonical(*want)
    return extra


def check_sparse_bits(graph, seed):
    # Short pools leave most clusters over; longer ones let EN join many.
    for spacing, phases in ((3, 2), (4, 3)):
        kwargs = dict(spacing=spacing, phases=phases, cap=3)
        source = SparseRandomness.for_graph(graph, h=1, seed=seed)
        got, _report, _extra = sparse_bits_decomposition(
            graph, source, strict=False, **kwargs)
        reference = SparseRandomness.for_graph(graph, h=1, seed=seed)
        want = reference_sparse_bits(graph, reference, **kwargs)
        assert canonical(got.cluster_of, got.color_of) == canonical(*want)
    # The isolated clusters come from the contracted CSR's degrees.
    gathered = gather_bits(graph, SparseRandomness.for_graph(
        graph, h=1, seed=seed), 8, spacing=3)
    cg = reference_cluster_adjacency(graph, gathered.assignment)
    assert gathered.isolated == {c for c in cg if cg.degree(c) == 0}


def check_components(graph):
    got = graph.connected_components()
    want = sorted(nx.connected_components(nx_copy(graph)), key=min)
    assert got == want


CHECKS = [check_deterministic, check_cluster_adjacency,
          check_tree_orientation, check_covering, check_components]


class TestFamilies:
    @pytest.mark.parametrize("name, n", family_cases())
    @pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__[6:])
    def test_matches_networkx(self, name, n, check):
        check(_family(name, n))

    @pytest.mark.parametrize("name, n", family_cases())
    def test_shattering_finish_matches_networkx(self, name, n):
        extra = check_shattering(_family(name, n), seed=n)
        assert extra["leftover"] > 0  # the finish really ran

    @pytest.mark.parametrize("name, n", family_cases())
    def test_sparse_bits_matches_networkx(self, name, n):
        check_sparse_bits(_family(name, n), seed=n)


class TestHypothesisGraphs:
    @settings(max_examples=150, deadline=None)
    @given(sparse_graphs())
    def test_matches_networkx(self, graph):
        for check in CHECKS:
            check(graph)

    @settings(max_examples=60, deadline=None)
    @given(sparse_graphs(), st.integers(0, 50))
    def test_decompositions_match_networkx(self, graph, seed):
        check_shattering(graph, seed)
        check_sparse_bits(graph, seed)


class TestCSRPorts:
    def test_cluster_adjacency_with_no_clusters(self):
        graph = _family("path", 10)
        offsets, indices, centers = cluster_adjacency(graph, {})
        assert offsets.tolist() == [0] and indices.size == centers.size == 0

    def test_tree_orientation_of_an_edgeless_graph(self):
        orientation, report = tree_orientation(
            DistributedGraph(nx.empty_graph(4)))
        assert orientation == {} and report.rounds == 1

    def test_components_ordered_by_smallest_node(self):
        raw = nx.Graph([(3, 4), (0, 2)])
        raw.add_nodes_from([1, 5])
        comps = DistributedGraph(raw).connected_components()
        assert comps == [{0, 2}, {1}, {3, 4}, {5}]
        assert all(type(v) is int for c in comps for v in c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 600), st.integers(1, 6), st.randoms())
    def test_components_of_long_permuted_paths(self, n, parts, rng):
        # Long paths are label propagation's slowest case: pointer
        # jumping must still settle every component on its smallest node.
        order = list(range(n))
        rng.shuffle(order)
        cuts = set(rng.sample(range(1, n), min(parts - 1, n - 1)))
        raw = nx.empty_graph(n)
        raw.add_edges_from((order[i - 1], order[i]) for i in range(1, n)
                           if i not in cuts)
        check_components(DistributedGraph(raw))

    def test_bfs_from_many_sources_is_distance_to_nearest(self):
        graph = _family("grid", 36)
        sources = [0, 17, 35]
        multi = bfs_distances(graph.csr.offsets, graph.csr.indices, sources)
        nearest = np.min([graph.bfs_distances(s) for s in sources], axis=0)
        assert multi.tolist() == nearest.tolist()
