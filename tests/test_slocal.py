"""The SLOCAL simulator: views, locality enforcement, greedy algorithms."""

import random

import networkx as nx
import pytest

from repro.errors import ConfigurationError, ModelViolation
from repro.sim import DistributedGraph, SLocalSimulator, local_view

from helpers import family_graphs, reference_local_view


def _shuffled_nx_graph(n=30, seed=3):
    """A networkx input whose ``graph.edges()`` order is not u-major:
    random edges, added in random order and orientation."""
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(rng.sample(range(n), n))
    pairs = {tuple(rng.sample(range(n), 2)) for _ in range(2 * n)}
    g.add_edges_from(rng.sample(sorted(pairs), len(pairs)))
    return DistributedGraph(g, uid_seed=seed)


class TestLocalView:
    def test_matches_the_definition(self):
        """One builder for every view: the ball with distances, the
        edges among it in ``graph.edges()`` order, its UIDs and the
        outputs written inside it."""
        shuffled = _shuffled_nx_graph()
        edges = list(shuffled.edges())
        assert edges != sorted(edges)  # not u-major
        for name, g in [*family_graphs(30), ("shuffled-nx", shuffled)]:
            maps = {"empty": {}, "partial": {u: u % 3 for u in g.nodes()
                                             if u % 2},
                    "full": {u: -u for u in g.nodes()}}
            for radius in range(4):
                for label, outputs in maps.items():
                    for v in g.nodes():
                        view = local_view(g, v, radius, outputs)
                        ref = reference_local_view(g, v, radius, outputs)
                        where = (name, radius, label, v)
                        assert view == ref, where
                        assert list(view.nodes.items()) == \
                            list(ref.nodes.items()), where
                        assert view.edges == ref.edges, where

    def test_neighbors_are_the_distance_one_nodes(self, cycle12):
        view = local_view(cycle12, 0, 2, {})
        assert sorted(view.neighbors()) == sorted(cycle12.neighbors(0))


class TestViews:
    def test_view_radius_is_enforced_by_construction(self, path9):
        seen = {}

        def decide(view):
            seen[view.center] = set(view.nodes)
            return True

        SLocalSimulator(path9, locality=2, decide=decide).run()
        for v, visible in seen.items():
            expected = set(path9.ball(v, 2))
            assert visible == expected

    def test_view_contains_uids_and_topology(self, cycle12):
        def decide(view):
            assert view.center in view.uids
            for a, b in view.edges:
                assert a in view.nodes and b in view.nodes
            return True

        SLocalSimulator(cycle12, locality=1, decide=decide).run()

    def test_records_accumulate_in_order(self, path9):
        def decide(view):
            processed = [u for u in view.nodes if u in view.outputs]
            return len(processed)

        result = SLocalSimulator(path9, locality=1, decide=decide).run(
            order=list(range(9)))
        # Node 0 sees nothing processed; node 1 sees node 0; etc.
        assert result.outputs[0] == 0
        assert result.outputs[1] == 1

    def test_locality_zero_sees_only_self(self, path9):
        def decide(view):
            return sorted(view.nodes) == [view.center]

        result = SLocalSimulator(path9, locality=0, decide=decide).run()
        assert all(result.outputs.values())


class TestValidation:
    def test_order_must_be_permutation(self, path9):
        sim = SLocalSimulator(path9, locality=1, decide=lambda v: True)
        with pytest.raises(ConfigurationError):
            sim.run(order=[0, 1, 2])
        with pytest.raises(ConfigurationError):
            sim.run(order=list(range(9)) + [0])

    def test_none_record_rejected(self, path9):
        sim = SLocalSimulator(path9, locality=1, decide=lambda v: None)
        with pytest.raises(ModelViolation):
            sim.run()

    def test_negative_locality_rejected(self, path9):
        with pytest.raises(ConfigurationError):
            SLocalSimulator(path9, locality=-1, decide=lambda v: True)

    def test_report_is_accounted_slocal(self, path9):
        result = SLocalSimulator(path9, locality=1,
                                 decide=lambda v: True).run()
        assert result.report.model == "SLOCAL"
        assert result.report.accounted
        assert result.report.rounds == 9


class TestGreedyColoring:
    def test_greedy_coloring_with_locality_one(self, dense40):
        """(Δ+1)-coloring has a locality-1 SLOCAL algorithm [GKM17]."""

        def decide(view):
            used = {
                view.outputs[u]
                for u, d in view.nodes.items()
                if d == 1 and u in view.outputs
            }
            color = 0
            while color in used:
                color += 1
            return color

        result = SLocalSimulator(dense40, locality=1, decide=decide).run()
        colors = result.outputs
        for u, v in dense40.edges():
            assert colors[u] != colors[v]
        assert max(colors.values()) <= dense40.max_degree()
