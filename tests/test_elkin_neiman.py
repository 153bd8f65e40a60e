"""The Elkin–Neiman decomposition: validity, bounds, determinism, and
the top-two flood every random-shift decomposition runs."""

import dataclasses
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ruling_sets import cluster_adjacency
import repro.core.decomposition.sparse_bits as sparse_bits_module
from repro.core.decomposition import (
    carve,
    default_cap,
    default_phases,
    elkin_neiman,
    elkin_neiman_batch,
    kwise_decomposition,
    kwise_source,
    sparse_bits_decomposition,
    top_two_flood,
)
from repro.core.decomposition.elkin_neiman import split_reads
from repro.errors import ConfigurationError
from repro.graphs import assign, make
from repro.randomness import IndependentSource, SparseRandomness
from repro.sim.batch.csr import disjoint_union, edges_to_csr

from helpers import (family_graphs, nx_copy, nx_to_csr, reference_carving,
                     reference_top_two_flood, source_ledger, sparse_graphs)


def _constant(radius):
    """A ``draw`` callback giving every center the same shift."""
    return lambda nodes, phase, epoch: np.full(len(nodes), radius)


class TestValidity:
    def test_valid_on_all_families(self):
        for name, g in family_graphs(48, seed=2):
            dec, report, extra = elkin_neiman(
                g, IndependentSource(seed=11), finish="strict")
            assert dec is not None, name
            assert dec.violations(g) == [], name

    def test_colors_at_most_phases(self, gnp60, source):
        phases = default_phases(gnp60.n)
        dec, _r, _e = elkin_neiman(gnp60, source, phases=phases)
        assert dec.num_colors() <= phases

    def test_strong_diameter_at_most_2cap(self, gnp60, source):
        cap = default_cap(gnp60.n)
        dec, _r, _e = elkin_neiman(gnp60, source, cap=cap)
        assert dec.max_strong_diameter(gnp60) <= 2 * cap

    def test_logarithmic_bounds_hold(self):
        g = assign(make("gnp-sparse", 128, seed=4), "random", seed=4)
        dec, _r, _e = elkin_neiman(g, IndependentSource(seed=5))
        logn = math.ceil(math.log2(g.n))
        assert dec.num_colors() <= 10 * logn
        assert dec.max_strong_diameter(g) <= 20 * logn

    def test_clusters_are_connected(self, gnp60, source):
        dec, _r, _e = elkin_neiman(gnp60, source)
        for members in dec.clusters().values():
            assert nx.is_connected(nx_copy(gnp60).subgraph(members))


class TestModes:
    def test_strict_returns_none_on_failure(self, cycle12):
        # One phase with tiny cap: some nodes stay unclustered w.h.p.
        dec, _r, extra = elkin_neiman(
            cycle12, IndependentSource(seed=1), phases=1, cap=1,
            finish="strict")
        if extra["unclustered"]:
            assert dec is None
        else:
            assert dec is not None  # got lucky; still consistent

    def test_singletons_mode_always_returns(self, cycle12):
        dec, _r, extra = elkin_neiman(
            cycle12, IndependentSource(seed=1), phases=1, cap=1,
            finish="singletons")
        assert dec is not None
        assert dec.violations(cycle12) == []
        assert set(dec.cluster_of) == set(cycle12.nodes())

    def test_unknown_finish_mode(self, cycle12, source):
        with pytest.raises(ConfigurationError):
            elkin_neiman(cycle12, source, finish="retry")

    def test_invalid_phase_cap(self, cycle12, source):
        offsets, indices, _ = nx_to_csr(nx.path_graph(3))
        for phases, cap, epochs in ((0, 4, 1), (4, 0, 1), (4, 4, 0)):
            with pytest.raises(ConfigurationError):
                carve(offsets, indices, _constant(1), phases, cap,
                      epochs=epochs)


class TestDeterminism:
    def test_same_seed_same_decomposition(self, gnp60):
        d1, _r1, _e1 = elkin_neiman(gnp60, IndependentSource(seed=7))
        d2, _r2, _e2 = elkin_neiman(gnp60, IndependentSource(seed=7))
        assert d1.cluster_of == d2.cluster_of
        assert d1.color_of == d2.color_of

    def test_different_seeds_differ(self, gnp60):
        d1, _r1, _e1 = elkin_neiman(gnp60, IndependentSource(seed=7))
        d2, _r2, _e2 = elkin_neiman(gnp60, IndependentSource(seed=8))
        assert d1.cluster_of != d2.cluster_of

    def test_report_accounting(self, gnp60, source):
        phases = 8
        cap = 6
        _d, report, _e = elkin_neiman(gnp60, source, phases=phases, cap=cap)
        assert report.accounted
        assert report.rounds == phases * (cap + 2)
        assert report.randomness_bits > 0

    def test_colors_are_contiguous(self, gnp60, source):
        dec, _r, _e = elkin_neiman(gnp60, source)
        colors = dec.colors_used()
        assert colors == list(range(len(colors)))


class TestPhaseCore:
    def test_single_giant_radius_clusters_everything(self):
        """One center with a huge shift swallows the whole graph."""
        offsets, indices, _ = nx_to_csr(nx.path_graph(7))
        draws = {3: 100}

        def draw(nodes, phase, epoch):
            return np.array([draws.get(v, 1) for v in nodes.tolist()])

        assignment, remaining, _m, _log = carve(
            offsets, indices, draw, 1, 100)
        assert not remaining
        assert {a for a in assignment.values()} == {(0, 3)}

    def test_equal_radii_cluster_nobody(self):
        """All-equal shifts produce gap <= 1 everywhere (the k=1 failure)."""
        offsets, indices, _ = nx_to_csr(nx.cycle_graph(8))
        assignment, remaining, _m, log = carve(
            offsets, indices, _constant(3), 4, 10)
        assert len(remaining) == 8
        assert not assignment
        assert [entry["set_aside"] for entry in log] == [8] * 4

    def test_gap_rule_respects_second_center(self):
        """Two centers at the ends of a path: the midpoint has gap 0."""
        offsets, indices, _ = nx_to_csr(nx.path_graph(5))
        draws = {0: 3, 4: 3}

        def draw(nodes, phase, epoch):
            return np.array([draws.get(v, 0) if phase == 0 else 0
                             for v in nodes.tolist()])

        assignment, remaining, _m, _log = carve(
            offsets, indices, draw, 1, 10)
        # Node 2 sees 3-2=1 from both: m1=m2 -> unclustered. Nodes 0, 1
        # see 3, 2 vs 1, 0: gap 2 -> clustered with center 0.
        assert assignment.get(0) == (0, 0)
        assert assignment.get(1) == (0, 0)
        assert 2 in remaining


def _oracle_top_two(graph, live, radii):
    """Brute force: every ``(r_c - d(c, u), c)`` pair, best two centers."""
    sub = nx_copy(graph).subgraph([v for v in graph.nodes() if live[v]])
    pairs = {v: [] for v in graph.nodes()}
    for c in sub.nodes():
        if radii[c] > 0:
            reach = nx.single_source_shortest_path_length(
                sub, c, cutoff=int(radii[c]))
            for u, d in reach.items():
                pairs[u].append((-(int(radii[c]) - d), c))
    out = []
    for v in graph.nodes():
        top = sorted(pairs[v])[:2]
        m1, center = (-top[0][0], top[0][1]) if top else (-1, -1)
        out.append((m1, center, -top[1][0] if len(top) > 1 else 0))
    return out


def _flood_cases(graph, seed):
    """(live, radii) pairs: all live, random masks, far-reaching centers
    (the Theorem 3.6 regime: radii beyond the diameter), and ties."""
    rng = np.random.default_rng(seed)
    n = graph.n
    everyone = np.ones(n, dtype=bool)
    yield everyone, rng.integers(0, 7, n)
    for _ in range(3):
        yield rng.random(n) < 0.6, rng.integers(-1, 9, n)
    centers = rng.random(n) < 0.15
    yield everyone, np.where(centers, n + rng.integers(0, 5, n), 0)
    yield rng.random(n) < 0.8, np.where(centers, 2 * n, 0)
    yield everyone, np.full(n, 3)
    yield rng.random(n) < 0.7, rng.choice([2, 3], n)


class TestTopTwoFlood:
    """The one top-two computation, against a shortest-path oracle."""

    @pytest.mark.parametrize("name,graph", list(family_graphs(36, seed=5)))
    def test_matches_oracle_on_families(self, name, graph):
        offsets, indices = graph.csr.offsets, graph.csr.indices
        cases = _flood_cases(graph, seed=sum(map(ord, name)))
        for case, (live, radii) in enumerate(cases):
            radii = radii.astype(np.int64)
            m1, center, m2, rounds, messages = top_two_flood(
                offsets, indices, live, radii)
            got = list(zip(m1.tolist(), center.tolist(), m2.tolist()))
            assert got == _oracle_top_two(graph, live, radii), (name, case)
            assert rounds <= max(0, int(radii.max())), (name, case)
            assert messages <= rounds * len(indices), (name, case)

    def test_dead_or_unshifted_nodes_never_offer(self):
        graph = nx.path_graph(4)
        offsets, indices, _nodes = nx_to_csr(graph)
        live = np.array([True, True, False, True])
        radii = np.array([3, 0, 5, -2], dtype=np.int64)
        m1, center, m2, rounds, _messages = top_two_flood(
            offsets, indices, live, radii)
        # Node 2 is dead: it neither offers nor relays, so 3 is unreached.
        assert m1.tolist() == [3, 2, -1, -1]
        assert center.tolist() == [0, 0, -1, -1]
        assert m2.tolist() == [0, 0, 0, 0]
        # 0 -> 1, then 1 echoes value 1 back; 0's pairs do not change.
        assert rounds == 2

    @pytest.mark.parametrize("name,graph", list(family_graphs(40, seed=6)))
    def test_measured_rounds_within_accounted(self, name, graph):
        phases, cap = 6, 5
        _d, report, extra = elkin_neiman(
            graph, IndependentSource(seed=21), phases=phases, cap=cap,
            finish="singletons")
        assert report.rounds == phases * (cap + 2)
        assert 0 < extra["rounds_measured"] <= phases * (cap + 2), name
        directed_edges = 2 * graph.m
        assert extra["messages"] <= extra["rounds_measured"] * directed_edges


@st.composite
def flood_inputs(draw):
    """(offsets, indices, live, radii) of a random CSR graph: G(n, p) on
    a prefix of the nodes, the rest isolated; n from 0 to 200, partial
    live masks, radii from negative to far beyond the diameter, ties."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 60),
                       st.integers(61, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wired = n - draw(st.integers(0, min(n, 5)))  # trailing isolated nodes
    degree = draw(st.sampled_from([0.5, 1.5, 4.0, 12.0]))
    u, v = np.triu_indices(wired, k=1)
    pick = rng.random(len(u)) < degree / max(1, wired)
    offsets, indices = edges_to_csr(
        n, np.stack((u[pick], v[pick]), axis=1).astype(np.int64))
    live = rng.random(n) < draw(st.sampled_from([1.0, 0.8, 0.4, 0.0]))
    low, high = draw(st.sampled_from([(-3, 4), (0, 2), (1, 9), (-1, 30)]))
    radii = rng.integers(low, high + 1, n)
    radii[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    return offsets, indices, live, radii.astype(np.int64)


class TestFloodOracle:
    """The sort-free flood against the lexsort flood it replaced
    (``helpers.reference_top_two_flood``), on all five return values."""

    @staticmethod
    def assert_same(offsets, indices, live, radii):
        got = top_two_flood(offsets, indices, live, radii)
        want = reference_top_two_flood(offsets, indices, live, radii)
        for name, g, w in zip(("m1", "center", "m2"), got[:3], want[:3]):
            assert g.tolist() == w.tolist(), name
        assert got[3:] == want[3:], "rounds, messages"

    @given(flood_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_flood(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        offsets, indices = edges_to_csr(
            n, np.array([[0, 1]] if n == 2 else [], dtype=np.int64
                        ).reshape(-1, 2))
        for radius in (-1, 0, 1, 3):
            for alive in (True, False):
                self.assert_same(offsets, indices, np.full(n, alive),
                                 np.full(n, radius, dtype=np.int64))

    def test_ties_break_toward_smaller_center(self):
        # Path 0-1-2-3-4: centers 0 and 4 tie at the midpoint; 1 and 3
        # tie at 2 with the same value, so 2's best is the smaller one.
        offsets, indices, _ = nx_to_csr(nx.path_graph(5))
        radii = np.array([3, 0, 0, 0, 3], dtype=np.int64)
        m1, center, m2, _r, _m = top_two_flood(
            offsets, indices, np.ones(5, dtype=bool), radii)
        assert center.tolist() == [0, 0, 0, 4, 4]
        assert m1.tolist() == [3, 2, 1, 2, 3]
        assert m2.tolist() == [0, 0, 1, 0, 0]

    def test_overflow_guard(self):
        # Edgeless, so the largest radius that fits floods in no time.
        offsets, indices = edges_to_csr(3, np.empty((0, 2), dtype=np.int64))
        live = np.ones(3, dtype=bool)
        bound = (np.iinfo(np.int64).max - 3) // 4
        top_two_flood(offsets, indices, live,
                      np.array([bound, 0, 0], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="exceeds the bound"):
            top_two_flood(offsets, indices, live,
                          np.array([bound + 1, 0, 0], dtype=np.int64))


def _tables(rng, n, phases, epochs, cap, low, elect_rate):
    """A ``draw`` and an ``elect`` callback reading fixed per-(phase,
    epoch, node) tables, so both loops see the same choices."""
    shifts = rng.integers(low, cap + 1, (phases, epochs + 1, max(n, 1)))
    picks = rng.random((phases, epochs + 1, max(n, 1))) < elect_rate

    def draw(nodes, phase, epoch):
        return shifts[phase, epoch, nodes]

    def elect(nodes, phase, epoch):
        return picks[phase, epoch, nodes]
    return draw, elect


class TestCarvingOracle:
    """The one carving loop against ``helpers.reference_carving`` (plain
    Python sets over the lexsort flood), on every return value: per-node
    phase and center in join order, leftovers, ``rounds_measured``,
    ``messages`` and the per-phase log."""

    @staticmethod
    def assert_same(offsets, indices, draw, phases, cap, **kwargs):
        got = carve(offsets, indices, draw, phases, cap, **kwargs)
        want = reference_carving(offsets, indices, draw, phases, cap,
                                 **kwargs)
        assert list(got[0].items()) == list(want[0].items()), "join order"
        assert got[1:] == want[1:], "leftovers, measured, log"
        return got

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**32 - 1),
           phases=st.integers(1, 4), epochs=st.integers(1, 3),
           cap=st.integers(1, 6), low=st.sampled_from([0, 1]),
           elect_rate=st.sampled_from([None, 0.0, 0.3, 0.8]),
           min_gap=st.sampled_from([0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, graph, seed, phases, epochs, cap, low,
                               elect_rate, min_gap):
        draw, elect = _tables(np.random.default_rng(seed), graph.n, phases,
                              epochs, cap, low, elect_rate or 0.0)
        self.assert_same(graph.csr.offsets, graph.csr.indices, draw, phases,
                         cap, epochs=epochs, min_gap=min_gap,
                         elect=None if elect_rate is None else elect)

    @given(graph=sparse_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_isolated_clusters(self, graph, seed):
        """A forest's components as clusters: their cluster graph is
        edgeless, and dropping the isolated vertices leaves no graph."""
        components = graph.connected_components()
        offsets, indices, centers = cluster_adjacency(graph, {
            v: min(part) for part in components for v in part})
        assert not indices.size and centers.size == len(components)
        draw, _ = _tables(np.random.default_rng(seed), centers.size, 3, 1,
                          4, 0, 0.0)
        assignment, leftovers, measured, log = self.assert_same(
            offsets, indices, draw, 3, 4)
        # Alone, a center clusters itself iff its shift beats the gap.
        for i in range(centers.size):
            phase = next((p for p in range(3) if draw(i, p, 1) > 1), None)
            assert assignment.get(i) == (None if phase is None
                                         else (phase, i))
        assert measured["messages"] == 0
        empty = np.zeros(1, dtype=np.int64)
        assert self.assert_same(empty, empty[:0], draw, 3, 4) == (
            {}, [], {"rounds_measured": 0, "messages": 0}, [])


#: A graph with no nodes and one with a single node, as CSR arrays.
EMPTY_CSR = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
ONE_NODE_CSR = (np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64))


@st.composite
def csr_lists(draw):
    """0-4 CSR graphs to carve as one union: hypothesis sparse graphs
    (trailing isolated nodes included), empty and one-node graphs."""
    part = st.one_of(
        sparse_graphs(max_nodes=16).map(
            lambda g: (g.csr.offsets, g.csr.indices)),
        st.just(EMPTY_CSR), st.just(ONE_NODE_CSR))
    return draw(st.lists(part, max_size=4))


def _shifted(callback, start):
    """A union callback seen from one block: block node v is union node
    ``start + v``."""
    return lambda nodes, phase, epoch: callback(nodes + start, phase, epoch)


class TestBatchedCarving:
    """One carve over a disjoint union equals each graph's own carving
    (``helpers.reference_carving``): per-block join order, leftovers,
    ``rounds_measured``, ``messages`` and phase log."""

    @given(parts=csr_lists(), seed=st.integers(0, 2**32 - 1),
           phases=st.integers(1, 4), epochs=st.integers(1, 3),
           cap=st.integers(1, 6), low=st.sampled_from([0, 1]),
           elect_rate=st.sampled_from([None, 0.0, 0.3, 0.8]),
           min_gap=st.sampled_from([0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_union_equals_separate_carvings(self, parts, seed, phases, epochs,
                                            cap, low, elect_rate, min_gap):
        offsets, indices, bounds = disjoint_union(parts)
        draw, elect = _tables(np.random.default_rng(seed), int(bounds[-1]),
                              phases, epochs, cap, low, elect_rate or 0.0)
        if elect_rate is None:
            elect = None
        got = carve(offsets, indices, draw, phases, cap, epochs=epochs,
                    elect=elect, min_gap=min_gap, blocks=bounds)
        assert len(got) == len(parts)
        for b, (part_offsets, part_indices) in enumerate(parts):
            start = int(bounds[b])
            want = reference_carving(
                part_offsets, part_indices, _shifted(draw, start), phases,
                cap, epochs=epochs, min_gap=min_gap,
                elect=None if elect is None else _shifted(elect, start))
            assert list(got[b][0].items()) == list(want[0].items()), b
            assert got[b][1:] == want[1:], b

    @given(st.lists(flood_inputs(), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_flood_counts_per_block(self, cases):
        offsets, indices, bounds = disjoint_union(
            [(case[0], case[1]) for case in cases])
        live = np.concatenate([np.zeros(0, dtype=bool)]
                              + [case[2] for case in cases])
        radii = np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [case[3] for case in cases])
        m1, center, m2, rounds, messages = top_two_flood(
            offsets, indices, live, radii, bounds)
        assert rounds.shape == messages.shape == (len(cases),)
        for b, case in enumerate(cases):
            lo, hi = bounds[b], bounds[b + 1]
            want = top_two_flood(*case)
            mine = center[lo:hi]
            assert m1[lo:hi].tolist() == want[0].tolist()
            assert np.where(mine >= 0, mine - lo, -1).tolist() == \
                want[1].tolist()
            assert m2[lo:hi].tolist() == want[2].tolist()
            assert (int(rounds[b]), int(messages[b])) == want[3:]


def _outputs(result):
    """An Elkin–Neiman result as plain, comparable values."""
    dec, report, extra = result
    return (None if dec is None else (dec.cluster_of, dec.color_of),
            dataclasses.asdict(report), list(extra["assignment"].items()),
            extra)


def _reads(source):
    """Log every ``geometrics`` read of ``source`` as ``(nodes, count,
    start)``; returns the log."""
    log, read = [], source.geometrics

    def logged(nodes, count, start):
        log.append((list(nodes), count, start))
        return read(nodes, count, start)
    source.geometrics = logged
    return log


class TestElkinNeimanBatch:
    """``elkin_neiman_batch`` returns each run's own outputs, report and
    ledger: each run against its own carving and a lone run."""

    @given(graphs=st.lists(sparse_graphs(max_nodes=16), max_size=4),
           seed=st.integers(0, 2**20), phases=st.integers(1, 4),
           cap=st.integers(1, 6),
           finish=st.sampled_from(["strict", "singletons"]),
           bit_offset=st.sampled_from([0, 5]),
           kwise=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_separate_runs(self, graphs, seed, phases, cap,
                                        finish, bit_offset, kwise):
        def sources():
            # k-wise sources serve exactly phases * cap bits per node.
            return [kwise_source(g.n, 4, phases, cap, seed + i)
                    if kwise and i % 2 and not bit_offset
                    else IndependentSource(seed=seed + i)
                    for i, g in enumerate(graphs)]

        batch_sources, alone_sources, carved_sources = (
            sources(), sources(), sources())
        batch_reads = [_reads(source) for source in batch_sources]
        alone_reads = [_reads(source) for source in alone_sources]
        got = elkin_neiman_batch(list(zip(graphs, batch_sources)),
                                 phases=phases, cap=cap, finish=finish,
                                 bit_offset=bit_offset)
        assert len(got) == len(graphs)
        for i, g in enumerate(graphs):
            alone = elkin_neiman(g, alone_sources[i], phases=phases, cap=cap,
                                 finish=finish, bit_offset=bit_offset)
            assert _outputs(got[i]) == _outputs(alone), i
            source = carved_sources[i]
            assignment, leftovers, measured, _log = reference_carving(
                g.csr.offsets, g.csr.indices,
                lambda c, phase, _e, source=source: source.geometrics(
                    c.tolist(), cap, bit_offset + phase * cap)[0],
                phases, cap)
            extra = got[i][2]
            assert list(extra["assignment"].items()) == \
                list(assignment.items())
            assert extra["unclustered"] == set(leftovers)
            assert {k: extra[k] for k in measured} == measured
            assert (got[i][0] is None) == (finish == "strict"
                                           and bool(leftovers))
            for other in (alone_sources[i], source):
                assert source_ledger(batch_sources[i]) == \
                    source_ledger(other)
                assert batch_sources[i].bits_consumed == other.bits_consumed
            assert got[i][1].randomness_bits == source.bits_consumed
            # The same reads, in order: none for a phase without centers.
            assert batch_reads[i] == alone_reads[i]

    def test_empty_batch(self):
        assert elkin_neiman_batch([]) == []

    def test_refusals(self, cycle12):
        source = IndependentSource(seed=1)
        with pytest.raises(ConfigurationError, match="one source per run"):
            elkin_neiman_batch([(cycle12, source), (cycle12, source)])
        big = assign(make("cycle", 300, seed=1), "random", seed=1)
        with pytest.raises(ConfigurationError, match="share phases and cap"):
            elkin_neiman_batch([(cycle12, IndependentSource(seed=1)),
                                (big, IndependentSource(seed=2))])
        elkin_neiman_batch([(cycle12, IndependentSource(seed=1)),
                            (big, IndependentSource(seed=2))], phases=3,
                           cap=4)
        with pytest.raises(ConfigurationError, match="finish"):
            elkin_neiman_batch([(cycle12, source)], finish="retry")


class TestSplitReads:
    """``split_reads`` reads each owner once, in ascending order, on its
    nodes in input order, and returns the values in input order."""

    @given(pairs=st.lists(st.tuples(st.integers(0, 50), st.integers(-3, 6)),
                          max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_one_read_per_owner(self, pairs):
        nodes = np.array([v for v, _ in pairs], dtype=np.int64)
        owners = np.array([o for _, o in pairs], dtype=np.int64)
        calls = []

        def read(owner, group):
            calls.append((owner, group.tolist()))
            return group * 10 + owner

        got = split_reads(nodes, owners, read)
        keys = sorted(set(owners.tolist()))
        assert [owner for owner, _ in calls] == keys
        assert [group for _, group in calls] == [
            [v for v, o in pairs if o == key] for key in keys]
        want = np.zeros(len(pairs), dtype=np.int64)
        for key in keys:
            mine = owners == key
            want[mine] = read(key, nodes[mine])
        assert got.tolist() == want.tolist()


class TestTheorem31Measured:
    """Theorem 3.1 keeps its cluster-graph carving's measured counts:
    they equal a direct carve of the same cluster graph with the same
    shifts."""

    @pytest.mark.parametrize("family,n,spacing", [
        ("grid", 144, 3), ("gnp-sparse", 120, 4), ("cycle", 96, 3)])
    def test_counts_equal_a_direct_carve(self, monkeypatch, family, n,
                                         spacing):
        calls = []
        real = sparse_bits_module.carve

        def spy(offsets, indices, draw, phases, cap, **kwargs):
            shifts = {}

            def recorded(centers, phase, epoch):
                radii = draw(centers, phase, epoch)
                shifts[phase] = dict(zip(centers.tolist(), radii.tolist()))
                return radii
            calls.append((offsets, indices, shifts, phases, cap))
            return real(offsets, indices, recorded, phases, cap, **kwargs)

        monkeypatch.setattr(sparse_bits_module, "carve", spy)
        g = assign(make(family, n, seed=2), "random", seed=2)
        _d, _r, extra = sparse_bits_decomposition(
            g, SparseRandomness.for_graph(g, h=1, seed=3), spacing=spacing,
            strict=False)
        ((offsets, indices, shifts, phases, cap),) = calls

        def replay(centers, phase, _epoch):
            return np.array([shifts[phase][c] for c in centers.tolist()],
                            dtype=np.int64)
        _a, _l, measured, _log = reference_carving(offsets, indices, replay,
                                                   phases, cap)
        assert measured["rounds_measured"] > 0
        assert {k: extra[k] for k in measured} == measured


class TestRandomnessPinned:
    """Exact metered bits for the three kinds of source EN draws from."""

    def test_independent(self):
        g = assign(make("gnp-sparse", 64, seed=3), "random", seed=3)
        _d, report, extra = elkin_neiman(g, IndependentSource(seed=4),
                                         finish="singletons")
        assert report.randomness_bits == 357
        assert (extra["rounds_measured"], extra["messages"]) == (46, 764)

    def test_kwise(self):
        g = assign(make("gnp-sparse", 64, seed=3), "random", seed=3)
        _d, report, _e = kwise_decomposition(g, k=8, seed=5, strict=False)
        assert report.randomness_bits == 245

    def test_pooled(self):
        g = assign(make("grid", 144, seed=1), "random", seed=1)
        _d, report, extra = sparse_bits_decomposition(
            g, SparseRandomness.for_graph(g, h=1, seed=2), spacing=12,
            strict=False)
        assert report.randomness_bits == extra["pool_bits_used"] == 14
        assert extra["pool_exhaustions"] == 0
