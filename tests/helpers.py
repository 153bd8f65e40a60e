"""Importable test helpers (not fixtures).

``conftest.py`` cannot be imported by test modules when ``tests/`` is not
a package (pytest loads it under a synthetic module name), so shared
*plain functions* live here instead. pytest inserts each test file's
directory on ``sys.path`` (rootdir import mode), which makes a bare
``from helpers import family_graphs`` work from every test module.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import random
from typing import (Any, Callable, Dict, Hashable, Iterator, List, Optional,
                    Set, Tuple)

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from repro.core.decomposition import elkin_neiman, gather_bits
from repro.core.linial import log_star
from repro.core.ruling_sets import greedy_ruling_set, voronoi_clusters
from repro.errors import (
    BandwidthExceeded,
    ConfigurationError,
    ModelViolation,
    RandomnessExhausted,
)
from repro.graphs import assign, make
from repro.randomness import SharedRandomness
from repro.randomness.block import deterministic_uniform
from repro.randomness.pooled import PooledBits
from repro.randomness.source import RandomSource
from repro.sim.batch.array import ArrayContext
from repro.sim.batch.csr import bfs_distances, edges_to_csr, index_edges
from repro.sim.graph import DistributedGraph, EdgeList
from repro.sim.messages import CONGEST, LOCAL, congest_limit, message_bits
from repro.sim.metrics import AlgorithmResult, RunReport
from repro.sim.slocal import LocalView

#: The named families every cross-topology test sweeps over.
FAMILY_NAMES = ("path", "cycle", "grid", "gnp-sparse", "gnp-dense",
                "tree", "cliques")


def family_graphs(n: int = 40, seed: int = 1) -> Iterator[Tuple[str, DistributedGraph]]:
    """All named families at size ~n (module-level helper, not a fixture)."""
    for name in FAMILY_NAMES:
        yield name, assign(make(name, n, seed=seed), "random", seed=seed)


def per_seed_oracle(run: Callable[[object, SharedRandomness], bool],
                    seed_bits: int) -> Callable[[object, np.ndarray], np.ndarray]:
    """Lift a scalar ``run(instance, shared) -> bool`` into the batched
    ``run_all(instance, codes) -> bool[k]`` contract of
    ``exhaustive_derandomize``.

    One ``SharedRandomness(explicit_bits=...)`` per code, bit ``i`` of
    the code as public bit ``i``; the objects of the last ``codes``
    block are reused across instances, as a per-seed walk would.
    """
    block = {"codes": None, "shared": []}

    def run_all(instance, codes):
        key = np.asarray(codes, dtype=np.int64).tobytes()
        if block["codes"] != key:
            block["codes"] = key
            block["shared"] = [
                SharedRandomness(seed_bits, explicit_bits=[
                    (int(code) >> i) & 1 for i in range(seed_bits)])
                for code in codes
            ]
        return np.array([run(instance, shared) for shared in block["shared"]],
                        dtype=bool)
    return run_all


def count_frontier_calls(patch) -> list:
    """Count ``ArrayContext._frontier_arcs`` calls, i.e. how often an op
    took the frontier branch, into a one-item list; ``patch`` is a
    pytest ``MonkeyPatch``."""
    calls = [0]
    real = ArrayContext._frontier_arcs

    def counted(self, senders):
        calls[0] += 1
        return real(self, senders)

    patch.setattr(ArrayContext, "_frontier_arcs", counted)
    return calls


def reference_top_two_flood(
    offsets: np.ndarray,
    indices: np.ndarray,
    live: np.ndarray,
    radii: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The lexsort top-two flood :func:`repro.core.decomposition.top_two_flood`
    replaced, kept verbatim as its oracle: best value per (receiver,
    center) by one ``lexsort``, then the best two centers per receiver
    by another. Same contract and return values."""
    n = len(radii)
    nodes = np.arange(n)
    src = np.repeat(nodes, np.diff(offsets))
    keep = live[src] & live[indices]
    src, dst = src[keep], indices[keep]
    m1 = np.where(live & (radii > 0), radii, -1)
    c1 = np.where(m1 >= 0, nodes, -1)
    m2 = np.full(n, -1, dtype=np.int64)
    c2 = np.full(n, -1, dtype=np.int64)
    senders = m1 > 0
    rounds = messages = 0
    while True:
        out = senders[src]
        if not out.any():
            break
        rounds += 1
        messages += int(np.count_nonzero(out))
        es, ed = src[out], dst[out]
        two = m2[es] > 0
        hit = np.zeros(n, dtype=bool)
        hit[ed] = True
        receivers = np.flatnonzero(hit)
        mine1 = receivers[c1[receivers] >= 0]
        mine2 = receivers[c2[receivers] >= 0]
        at = np.concatenate((ed, ed[two], mine1, mine2))
        value = np.concatenate((m1[es] - 1, m2[es][two] - 1, m1[mine1], m2[mine2]))
        center = np.concatenate((c1[es], c2[es][two], c1[mine1], c2[mine2]))
        # Best value per (receiver, center) ...
        order = np.lexsort((-value, center, at))
        at, value, center = at[order], value[order], center[order]
        first = np.ones(len(at), dtype=bool)
        first[1:] = (at[1:] != at[:-1]) | (center[1:] != center[:-1])
        at, value, center = at[first], value[first], center[first]
        # ... then the best two centers per receiver.
        order = np.lexsort((center, -value, at))
        at, value, center = at[order], value[order], center[order]
        head = np.ones(len(at), dtype=bool)
        head[1:] = at[1:] != at[:-1]
        second = np.zeros(len(at), dtype=bool)
        second[1:] = head[:-1] & ~head[1:]
        r = receivers
        was1, was_c1, was2, was_c2 = m1[r], c1[r], m2[r], c2[r]
        m1[at[head]], c1[at[head]] = value[head], center[head]
        m2[r], c2[r] = -1, -1
        m2[at[second]], c2[at[second]] = value[second], center[second]
        # A positive pair is only ever displaced by another positive
        # pair, so "a slot now holds a new positive pair" is exactly
        # "the pairs worth forwarding changed".
        senders = np.zeros(n, dtype=bool)
        senders[r] = (((m1[r] > 0) & ((m1[r] != was1) | (c1[r] != was_c1)))
                      | ((m2[r] > 0) & ((m2[r] != was2) | (c2[r] != was_c2))))
    return m1, c1, np.maximum(m2, 0), rounds, messages


def reference_carving(offsets, indices, draw, phases: int, cap: int,
                      epochs: int = 1, elect=None, min_gap: int = 1):
    """The random-shift carving :func:`repro.core.decomposition.carve`
    runs, written as plain Python sets and dicts over
    :func:`reference_top_two_flood`; same contract and return values
    ``(assignment, leftovers, measured, log)``."""
    if phases < 1 or epochs < 1 or cap < 1:
        raise ConfigurationError("phases, epochs and cap must be >= 1")
    n = len(offsets) - 1
    live = set(range(n))
    assignment: Dict[int, Tuple[int, int]] = {}
    measured = {"rounds_measured": 0, "messages": 0}
    log: List[Dict[str, int]] = []
    for phase in range(phases):
        if not live:
            break
        available = set(live)
        entry = {"phase": phase, "clustered": 0, "set_aside": 0}
        for epoch in range(1, epochs + 1):
            if not available:
                break
            nodes = np.array(sorted(available), dtype=np.int64)
            if elect is not None:
                nodes = nodes[np.asarray(elect(nodes, phase, epoch), dtype=bool)]
            if not len(nodes):
                continue
            base = (epochs - epoch) * (cap + 2)
            radii = np.zeros(n, dtype=np.int64)
            for c, shift in zip(nodes.tolist(),
                                np.asarray(draw(nodes, phase, epoch)).tolist()):
                radii[c] = base + shift
            mask = np.zeros(n, dtype=bool)
            mask[sorted(available)] = True
            m1, center, m2, rounds, messages = reference_top_two_flood(
                offsets, indices, mask, radii)
            measured["rounds_measured"] += rounds + 2
            measured["messages"] += messages
            for v in sorted(available):
                if center[v] < 0:
                    continue
                available.remove(v)
                if m1[v] - m2[v] > min_gap:
                    assignment[v] = (phase, int(center[v]))
                    live.remove(v)
                    entry["clustered"] += 1
                else:
                    entry["set_aside"] += 1
        log.append(entry)
    return assignment, sorted(live), measured, log


def nx_copy(graph: DistributedGraph) -> nx.Graph:
    """The network as a networkx graph on indices, for oracles: nodes in
    index order, edges in ``graph.edges()`` (the input's) order."""
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes())
    copy.add_edges_from(graph.edges())
    return copy


@st.composite
def sparse_graphs(draw, max_nodes: int = 24) -> DistributedGraph:
    """A random forest (parent -1 starts a new tree) plus a few chords,
    relabeled at random, with up to three trailing edgeless nodes: they
    put empty CSR segments after the last nonempty one."""
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    chords = draw(st.lists(pairs, max_size=6))
    label = draw(st.permutations(range(n)))
    tail = draw(st.integers(0, 3))
    g = nx.Graph()
    g.add_nodes_from(range(n + tail))  # isolated nodes stay in the graph
    g.add_edges_from((label[u], label[v]) for u, v in
                     [(i, p) for i, p in enumerate(parents) if p >= 0]
                     + chords if u != v)
    return DistributedGraph(g, uid_seed=draw(st.integers(0, 99)))


# ----------------------------------------------------------------------
# The networkx implementations the CSR ports replaced, kept as oracles.
# ----------------------------------------------------------------------
def nx_to_csr(graph) -> Tuple[np.ndarray, np.ndarray, List]:
    """CSR arrays ``(offsets, indices, labels)`` for an arbitrary
    networkx graph, ``labels`` sorted (position = index)."""
    labels, edges = index_edges(graph)
    offsets, indices = edges_to_csr(len(labels), edges)
    return offsets, indices, labels


def ball_carving_nx(
    graph: nx.Graph,
    priority: Optional[Dict[Hashable, int]] = None,
) -> Dict[Hashable, Tuple[int, Hashable]]:
    """Core carving loop on a plain networkx graph.

    ``priority`` orders the scan (smaller first; defaults to ``repr``
    order). Returns node -> (color, center).
    """
    n = graph.number_of_nodes()
    if n == 0:
        return {}
    max_radius = max(1, math.ceil(math.log2(max(2, n))))

    def order_key(v: Hashable):
        return (priority[v], repr(v)) if priority is not None else repr(v)

    unclustered: Set[Hashable] = set(graph.nodes())
    assignment: Dict[Hashable, Tuple[int, Hashable]] = {}
    color = 0
    while unclustered:
        free = set(unclustered)  # nodes available within this phase
        for v in sorted(unclustered, key=order_key):
            if v not in free:
                continue
            ball, shell = _grow_ball_nx(graph, v, free, max_radius)
            for u in ball:
                assignment[u] = (color, v)
            unclustered.difference_update(ball)
            free.difference_update(ball)
            free.difference_update(shell)
        color += 1
        if color > 2 * max_radius + 4:
            raise ConfigurationError(
                "ball carving failed to terminate; this indicates a bug"
            )
    return assignment


def _grow_ball_nx(graph: nx.Graph, v: Hashable, free: Set[Hashable],
                  max_radius: int) -> Tuple[Set[Hashable], Set[Hashable]]:
    """Grow B(v, r) in G[free] until |B(v, r+1)| <= 2 |B(v, r)|.

    Returns (ball, shell) where shell = B(v, r+1) \\ B(v, r).
    """
    layers: List[Set[Hashable]] = [{v}]
    ball: Set[Hashable] = {v}
    while True:
        frontier = layers[-1]
        nxt: Set[Hashable] = set()
        for x in frontier:
            for y in graph.neighbors(x):
                if y in free and y not in ball and y not in nxt:
                    nxt.add(y)
        if len(ball) + len(nxt) <= 2 * len(ball) or len(layers) - 1 >= max_radius:
            return ball, nxt
        ball.update(nxt)
        layers.append(nxt)


def reference_deterministic_decomposition(graph: DistributedGraph
                                          ) -> Tuple[Dict, Dict]:
    """``(cluster_of, color_of)`` of the networkx deterministic
    decomposition."""
    priority = {v: graph.uid(v) for v in graph.nodes()}
    assignment = ball_carving_nx(nx_copy(graph), priority)
    cluster_ids: Dict[Tuple[int, Hashable], int] = {}
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    for v, (color, center) in assignment.items():
        cid = cluster_ids.setdefault((color, center), len(cluster_ids))
        cluster_of[v] = cid
        color_of[cid] = color
    return cluster_of, color_of


def reference_cluster_adjacency(graph: DistributedGraph,
                                assignment: Dict[int, int]) -> nx.Graph:
    """The cluster graph: one vertex per center, edges between clusters
    containing adjacent nodes (the logical graph CG of Lemma 3.3)."""
    cg = nx.Graph()
    cg.add_nodes_from(set(assignment.values()))
    for u, v in graph.edges():
        cu, cv = assignment.get(u), assignment.get(v)
        if cu is not None and cv is not None and cu != cv:
            cg.add_edge(cu, cv)
    return cg


def reference_shattering(graph: DistributedGraph, source, en_phases: int,
                         cap: int) -> Tuple[Dict, Dict]:
    """``(cluster_of, color_of)`` of the networkx Theorem 4.2 pipeline
    (before color normalization)."""
    decomposition, _report, en_extra = elkin_neiman(
        graph, source, phases=en_phases, cap=cap, finish="strict")
    if decomposition is not None:
        return decomposition.cluster_of, decomposition.color_of
    leftover: Set[int] = set(en_extra["unclustered"])
    t = en_phases * (cap + 2)
    separated, _ruling = greedy_ruling_set(graph, alpha=2 * t + 1,
                                           subset=leftover)
    assignment_all = voronoi_clusters(graph, separated)
    members: Dict[int, Set[int]] = {}
    for v in leftover:
        members.setdefault(assignment_all[v], set()).add(v)
    cg = nx.Graph()
    cg.add_nodes_from(members.keys())
    center_of: Dict[int, int] = {}
    for center, mem in members.items():
        for v in mem:
            center_of[v] = center
    for u, v in graph.edges():
        cu, cv = center_of.get(u), center_of.get(v)
        if cu is not None and cv is not None and cu != cv:
            cg.add_edge(cu, cv)
    det_assignment = ball_carving_nx(cg, priority={c: graph.uid(c)
                                                   for c in cg.nodes()})
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    en_ids: Dict[Tuple[int, Hashable], int] = {}
    for v, (phase, center) in en_extra["assignment"].items():
        cid = en_ids.setdefault((phase, center), len(en_ids))
        cluster_of[v] = cid
        color_of[cid] = phase
    offset = (max(color_of.values()) + 1) if color_of else 0
    det_ids: Dict[Tuple[int, Hashable], int] = {}
    next_cid = (max(color_of.keys()) + 1) if color_of else 0
    for center, (det_color, det_center) in det_assignment.items():
        key = (det_color, det_center)
        if key not in det_ids:
            det_ids[key] = next_cid
            color_of[next_cid] = offset + det_color
            next_cid += 1
        cid = det_ids[key]
        for v in members[center]:
            cluster_of[v] = cid
    return cluster_of, color_of


def reference_sparse_bits(graph: DistributedGraph, source, spacing: int,
                          phases: int, cap: int) -> Tuple[Dict, Dict]:
    """``(cluster_of, color_of)`` of the networkx Theorem 3.1 pipeline
    with ``strict=False`` (before color normalization); the isolated
    clusters are recomputed on the networkx cluster graph."""
    gathered = gather_bits(graph, source, 4 * phases, spacing=spacing)
    cg = reference_cluster_adjacency(graph, gathered.assignment)
    isolated = {c for c in cg.nodes() if cg.degree(c) == 0}
    pools = PooledBits({c: [] if c in isolated else bits
                        for c, bits in gathered.pools.items()})
    active = [c for c in cg.nodes() if c not in isolated]
    cg_active = cg.subgraph(active)
    cursor: Dict[int, int] = {}

    def draw(center) -> int:
        offset = cursor.get(center, 0)
        try:
            value, used = pools.geometric(center, cap, offset)
        except RandomnessExhausted:
            return 1
        cursor[center] = offset + used
        return value

    offsets, indices, labels = nx_to_csr(cg_active)
    assignment_cg, _left, _measured, _log = reference_carving(
        offsets, indices,
        lambda centers, _phase, _epoch: np.array(
            [draw(labels[c]) for c in centers.tolist()], dtype=np.int64),
        phases, cap)
    assignment_cg = {labels[i]: (phase, labels[c])
                     for i, (phase, c) in assignment_cg.items()}
    remaining = set(cg_active.nodes())
    remaining.difference_update(assignment_cg)
    members = gathered.cluster_members()
    cluster_of: Dict[int, int] = {}
    color_of: Dict[int, int] = {}
    final_ids: Dict[Tuple[int, int], int] = {}
    for center in isolated:
        cid = final_ids.setdefault(("isolated", center), len(final_ids))
        color_of[cid] = 0
        for v in members[center]:
            cluster_of[v] = cid
    for center, (phase, en_center) in assignment_cg.items():
        cid = final_ids.setdefault((phase, en_center), len(final_ids))
        color_of[cid] = phase
        for v in members[center]:
            cluster_of[v] = cid
    next_color = (max(color_of.values()) + 1) if color_of else 0
    for center in remaining:
        cid = len(final_ids)
        final_ids[("leftover", center)] = cid
        color_of[cid] = next_color
        next_color += 1
        for v in members[center]:
            cluster_of[v] = cid
    return cluster_of, color_of


def reference_tree_orientation(graph: DistributedGraph, min_degree: int = 3
                               ) -> Tuple[Dict, int]:
    """``(orientation, rounds)`` of the networkx leaf-rooted BFS
    orientation."""
    view = nx_copy(graph)
    if not nx.is_forest(view):
        raise ConfigurationError("tree_orientation requires a forest")
    orientation = {}
    depth = 0
    for component in nx.connected_components(view):
        nodes = sorted(component)
        if len(nodes) == 1:
            continue
        exempt = [v for v in nodes if graph.degree(v) < min_degree]
        if not exempt:
            raise ConfigurationError(
                "no feasible root: every node is constrained"
            )
        root = min(exempt, key=graph.uid)
        lengths = nx.single_source_shortest_path_length(view, root)
        depth = max(depth, max(lengths.values()))
        for u, v in nx.bfs_edges(view, root):
            orientation[(min(u, v), max(u, v))] = (u, v)  # parent -> child
    return orientation, depth + 1


def reference_covering_holders(graph: DistributedGraph, h: int,
                               seed: int = 0, style: str = "sparse") -> Set:
    """The holder greedy over the networkx copy's CSR."""
    view = nx_copy(graph)
    nodes = sorted(view.nodes())
    if style == "dense" or h == 0:
        return set(nodes)

    def sort_key(v: object) -> int:
        digest = hashlib.sha256(f"holders:{seed}:{v!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    offsets, indices, labels = nx_to_csr(view)
    index_of = {label: i for i, label in enumerate(labels)}
    holders: Set = set()
    covered = np.zeros(len(index_of), dtype=bool)
    for v in sorted(nodes, key=sort_key):
        vi = index_of[v]
        if covered[vi]:
            continue
        holders.add(v)
        covered |= bfs_distances(offsets, indices, vi, cutoff=h) >= 0
    return holders


def reference_verify_covering(graph: DistributedGraph, holders, h: int) -> bool:
    """One bounded BFS per holder on the networkx copy's CSR."""
    offsets, indices, labels = nx_to_csr(nx_copy(graph))
    index_of = {label: i for i, label in enumerate(labels)}
    covered = np.zeros(len(index_of), dtype=bool)
    for s in holders:
        if s not in index_of:
            continue
        covered |= bfs_distances(offsets, indices, index_of[s],
                                 cutoff=h) >= 0
    return bool(covered.all())


def reference_local_view(graph: DistributedGraph, v: int, radius: int,
                         outputs: Dict[int, Any]) -> LocalView:
    """``local_view`` by its definition: a BFS ball with distances (by
    node index, as ``graph.ball`` lists it), ``graph.edges()`` filtered
    to the ball in order, the ball's UIDs and ``outputs`` restricted to
    the ball."""
    dist = {v: 0}
    queue = collections.deque([v])
    while queue:
        w = queue.popleft()
        if dist[w] == radius:
            continue
        for u in graph.neighbors(w):
            if u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    nodes = dict(sorted(dist.items()))
    return LocalView(
        center=v,
        nodes=nodes,
        edges=[(a, b) for a, b in graph.edges()
               if a in nodes and b in nodes],
        uids={u: graph.uid(u) for u in nodes},
        outputs={u: out for u, out in outputs.items() if u in nodes},
    )


def int_message_bits(values: np.ndarray) -> np.ndarray:
    """``message_bits`` of each non-negative integer by an exact
    shift-count bit length: the readable reference that
    ``repro.sim.batch.array.fast_int_message_bits`` is tested against."""
    v = np.asarray(values, dtype=np.int64)
    if np.any(v < 0):
        raise ConfigurationError("int_message_bits requires non-negative values")
    bl = np.zeros(v.shape, dtype=np.int64)
    x = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.int64(1) << shift)
        bl[big] += shift
        x[big] >>= shift
    bl[x > 0] += 1
    return np.maximum(bl, 1) + 1


def reference_gf2m_tables(m: int, modulus: int):
    """GF(2^m)'s ``(log, exp, log_np, exp_np)`` built element by element:
    the scalar shift-and-reduce walk over the smallest generator that
    ``finite_field._tables`` vectorizes."""
    order = 1 << m
    group = order - 1

    def times(value: int, g: int) -> int:
        out = 0
        while g:
            if g & 1:
                out ^= value
            g >>= 1
            value <<= 1
            if value & order:
                value ^= modulus
        return out

    g = 2
    while True:
        exp = [1]
        value = 1
        for _ in range(group - 1):
            value = times(value, g)
            if value == 1:
                break  # g has order < 2^m - 1: not a generator
            exp.append(value)
        if len(exp) == group:
            break
        g += 1
    log = [0] * order
    for i, v in enumerate(exp):
        log[v] = i
    exp = exp + exp
    zero = 2 * group
    log_np = np.asarray(log, dtype=np.int64)
    log_np[0] = zero
    exp_np = np.zeros(2 * zero + 1, dtype=np.int64)
    exp_np[:zero] = exp
    return tuple(log), tuple(exp), log_np, exp_np


# ----------------------------------------------------------------------
# The networkx generators the edge-list families replaced, kept as
# oracles: ``repro.graphs.generators`` must match them edge for edge, in
# insertion (adjacency) order.
# ----------------------------------------------------------------------
def _nx_bridge_components(g: nx.Graph, seed: int) -> nx.Graph:
    components = [sorted(c) for c in nx.connected_components(g)]
    if len(components) <= 1:
        return g
    rng = random.Random(seed + 1)
    for prev, cur in zip(components, components[1:]):
        g.add_edge(rng.choice(prev), rng.choice(cur))
    return g


def nx_path(n: int) -> nx.Graph:
    return nx.path_graph(n)


def nx_cycle(n: int) -> nx.Graph:
    return nx.cycle_graph(n)


def nx_grid(rows: int, cols: int) -> nx.Graph:
    g = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def nx_gnp(n: int, p: float, seed: int = 0) -> nx.Graph:
    return _nx_bridge_components(nx.gnp_random_graph(n, p, seed=seed), seed)


def nx_random_regular(n: int, d: int, seed: int = 0) -> nx.Graph:
    return nx.random_regular_graph(d, n, seed=seed)


def nx_random_tree(n: int, seed: int = 0) -> nx.Graph:
    if n <= 2:
        return nx.path_graph(n)
    rng = random.Random(seed)
    return nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])


def nx_complete_tree(branching: int, height: int) -> nx.Graph:
    g = nx.balanced_tree(branching, height)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def nx_caterpillar(spine: int, legs: int) -> nx.Graph:
    g = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs):
            g.add_edge(v, next_id)
            next_id += 1
    return g


def nx_cluster_of_cliques(num_cliques: int, clique_size: int,
                          chain: bool = True) -> nx.Graph:
    g = nx.Graph()
    anchors = []
    for c in range(num_cliques):
        base = c * clique_size
        members = list(range(base, base + clique_size))
        g.add_nodes_from(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                g.add_edge(u, v)
        anchors.append(base)
    for i in range(1, num_cliques):
        g.add_edge(anchors[i - 1] if chain else anchors[0], anchors[i])
    return g


def nx_dumbbell(side: int, bar: int) -> nx.Graph:
    g = nx.Graph()
    for group in (range(side), range(side, 2 * side)):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                g.add_edge(u, v)
    prev, next_id = 0, 2 * side
    for _ in range(bar):
        g.add_edge(prev, next_id)
        prev, next_id = next_id, next_id + 1
    g.add_edge(prev, side)
    return g


def nx_lopsided(n: int, hubs: Optional[int] = None) -> nx.Graph:
    if hubs is None:
        hubs = max(1, n // 16)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for h in range(1, hubs):
        g.add_edge(h - 1, h)
    for leaf in range(hubs, n):
        g.add_edge((leaf - hubs) % hubs, leaf)
    return g


#: ``FAMILIES`` as the networkx generators built them (``expander`` is
#: still networkx-built in src, so it is its own oracle).
NX_FAMILIES = {
    "path": lambda n, seed=0: nx_path(n),
    "cycle": lambda n, seed=0: nx_cycle(max(3, n)),
    "grid": lambda n, seed=0: nx_grid(max(1, int(n ** 0.5)),
                                      max(1, round(n / max(1, int(n ** 0.5))))),
    "gnp-sparse": lambda n, seed=0: nx_gnp(n, min(1.0, 2.0 / max(1, n - 1)), seed),
    "gnp-dense": lambda n, seed=0: nx_gnp(n, min(1.0, 10.0 / max(1, n - 1)), seed),
    "regular-3": lambda n, seed=0: nx_random_regular(n + (n * 3) % 2, 3, seed),
    "regular-4": lambda n, seed=0: nx_random_regular(max(5, n), 4, seed),
    "tree": lambda n, seed=0: nx_random_tree(n, seed),
    "cliques": lambda n, seed=0: nx_cluster_of_cliques(max(1, n // 8), 8),
    "caterpillar": lambda n, seed=0: nx_caterpillar(max(1, n // 4), 3),
    "dumbbell": lambda n, seed=0: nx_dumbbell(max(2, n // 3),
                                              max(1, n - 2 * max(2, n // 3))),
    "lopsided": lambda n, seed=0: nx_lopsided(max(2, n)),
}


def to_nx(graph) -> nx.Graph:
    """An :class:`~repro.sim.graph.EdgeList` as the networkx graph it
    stands for (nodes ``0 .. n-1``, then the edges in order); networkx
    graphs pass through."""
    if not isinstance(graph, EdgeList):
        return graph
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges.tolist())
    return g


def nx_power_graph(graph: DistributedGraph, r: int) -> nx.Graph:
    """The former ``DistributedGraph.power_graph`` construction."""
    power = nx.Graph()
    power.add_nodes_from(range(graph.n))
    for v in range(graph.n):
        for u, d in graph.ball(v, r).items():
            if u != v and d <= r:
                power.add_edge(v, u)
    return power


def nx_adversarial_uids(graph: nx.Graph) -> List[int]:
    """The former ``adversarial_path_ids`` UIDs (``nx.bfs_tree`` order)."""
    labels = sorted(graph.nodes())
    order = list(nx.bfs_tree(graph, labels[0]).nodes())
    reached = set(order)
    order.extend(v for v in labels if v not in reached)
    uid_of = {v: i + 1 for i, v in enumerate(order)}
    return [uid_of[v] for v in labels]


# ----------------------------------------------------------------------
# Per-node programs and their execution context: what the reference
# engine (SyncEngine below) runs, one dict per node per round
# ----------------------------------------------------------------------
class NodeContext:
    """Everything a node is allowed to know and do locally.

    The randomness API is cursor-based: each call consumes fresh bits
    from the node's private stream, so programs never have to track bit
    offsets (and can never accidentally reuse bits, which would break the
    limited-independence analyses).
    """

    def __init__(self, v: int, uid: int, neighbors: List[int], n: int,
                 source: Optional[RandomSource], uniform: bool = False):
        self.v = v
        self.uid = uid
        self.neighbors = list(neighbors)
        self.degree = len(neighbors)
        self._n = n
        self._uniform = uniform
        self._source = source
        self._cursor = 0
        self.state: Dict[str, Any] = {}
        self.finished = False
        self.output: Any = None

    # ------------------------------------------------------------------
    # Knowledge of n (non-uniform vs uniform algorithms, Section 2)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """The network size given as input (possibly an upper bound).

        Uniform algorithms (constructed with ``uniform=True``) are denied
        access — reading ``n`` raises, enforcing Definition 2.1's split.
        """
        if self._uniform:
            raise ModelViolation("uniform algorithm may not read n")
        return self._n

    # ------------------------------------------------------------------
    # Randomness (cursor-based, metered by the source)
    # ------------------------------------------------------------------
    def _require_source(self) -> RandomSource:
        if self._source is None:
            raise ModelViolation(
                f"node {self.v} requested randomness but the run is deterministic"
            )
        return self._source

    def rand_bit(self) -> int:
        """One fresh private random bit."""
        bit = self._require_source().bit(self.v, self._cursor)
        self._cursor += 1
        return bit

    def rand_bits(self, count: int) -> List[int]:
        """``count`` fresh private random bits (one bulk stream read)."""
        bits = self._require_source().bits(self.v, count, self._cursor)
        self._cursor += count
        return bits

    def rand_uniform(self, bound: int) -> int:
        """Fresh uniform integer in ``[0, bound)``."""
        value, used = self._require_source().uniform_int(
            self.v, bound, self._cursor)
        self._cursor += used
        return value

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def finish(self, output: Any) -> None:
        """Terminate this node with its local output."""
        self.finished = True
        self.output = output


class NodeProgram:
    """Base class for per-node message-passing programs.

    Subclasses override :meth:`init` (round 0 setup, returns the first
    outbox) and :meth:`step` (called each subsequent round). Outboxes map
    neighbor handle -> payload; the special key :data:`BROADCAST` sends
    the same payload to every neighbor.

    A node keeps receiving messages after calling ``finish`` (neighbors
    may still be running) but its program is no longer stepped.
    """

    BROADCAST = "__broadcast__"

    def init(self, ctx: NodeContext) -> Dict[Any, Any]:
        """Round-0 setup; returns the outbox for round 1."""
        return {}

    def step(self, ctx: NodeContext, round_index: int,
             inbox: Dict[int, Any]) -> Dict[Any, Any]:
        """One round: consume the inbox, return the outbox."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# The three primitives as per-node programs: the oracle their array
# programs (ArrayLubyMIS, ArrayFloodMin, ArrayBFSForest) are held to
# ----------------------------------------------------------------------
_PRIO, _IN, _OUT = "p", "i", "o"


class LubyMIS(NodeProgram):
    """Luby's MIS as a three-round-per-iteration node program.

    Iteration structure (round index mod 3):

    1. every undecided node draws a fresh priority and sends it to its
       undecided neighbors;
    2. a node that beats all received priorities joins the MIS and
       announces IN;
    3. neighbors of fresh IN nodes go OUT and announce it, so everyone
       prunes its undecided-neighbor set before the next iteration.

    Priorities are (random value, UID) pairs — the UID tiebreak makes
    simultaneous joins of adjacent nodes impossible even on unlucky draws.
    Messages are O(log n) bits; the program is CONGEST-legal.
    """

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["alive"] = set(ctx.neighbors)
        ctx.state["decided"] = None
        ctx.state["prio"] = None
        ctx.state["nbr_prio"] = {}
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        st = ctx.state
        # Absorb announcements regardless of the phase we are in.
        for sender, message in inbox.items():
            kind = message[0]
            if kind == _IN:
                st["alive"].discard(sender)
                if st["decided"] is None:
                    st["decided"] = False
            elif kind == _OUT:
                st["alive"].discard(sender)
            elif kind == _PRIO:
                st["nbr_prio"][sender] = (message[1], message[2])

        phase = round_index % 3
        if phase == 1:
            if st["decided"] is False:
                ctx.finish(False)
                return {}
            st["nbr_prio"] = {}
            value = ctx.rand_uniform(ctx.n ** 2)
            st["prio"] = (value, ctx.uid)
            out = {u: (_PRIO, value, ctx.uid) for u in st["alive"]}
            return out
        if phase == 2:
            if st["decided"] is not None or st["prio"] is None:
                return {}
            mine = st["prio"]
            rivals = [st["nbr_prio"][u] for u in st["alive"]
                      if u in st["nbr_prio"]]
            if all(mine > r for r in rivals):
                st["decided"] = True
                return {u: (_IN,) for u in st["alive"]}
            return {}
        # phase == 0: propagate OUT decisions and finish decided nodes.
        if st["decided"] is True:
            ctx.finish(True)
            return {}
        if st["decided"] is False:
            # Tell undecided neighbors we are out, then finish next pass.
            return {u: (_OUT,) for u in st["alive"]}
        if not st["alive"]:
            # All neighbors decided without claiming us: we join.
            ctx.finish(True)
            return {}
        return {}


class FloodMin(NodeProgram):
    """Learn the minimum UID within ``radius`` hops (radius rounds)."""

    def __init__(self, radius: int):
        if radius < 0:
            raise ConfigurationError("radius must be >= 0")
        self.radius = radius

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["best"] = ctx.uid
        if self.radius == 0:
            ctx.finish(ctx.uid)
            return {}
        return {NodeProgram.BROADCAST: ctx.uid}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        for uid in inbox.values():
            if uid < ctx.state["best"]:
                ctx.state["best"] = uid
        if round_index >= self.radius:
            ctx.finish(ctx.state["best"])
            return {}
        # Re-broadcast every round, improved or not: neighbors joining
        # late still need it. The message is O(log n) bits, so this
        # stays CONGEST-legal.
        return {NodeProgram.BROADCAST: ctx.state["best"]}


class BFSTree(NodeProgram):
    """Grow BFS trees from marked roots; adopt the smallest-root-UID wave.

    Output per node: ``(root_uid, parent_index | None, depth)``. Roots
    are the nodes whose index is in ``roots``. Terminates after
    ``depth_bound`` rounds (pass the graph's size for full coverage).
    """

    def __init__(self, roots, depth_bound: int):
        if depth_bound < 1:
            raise ConfigurationError("depth_bound must be >= 1")
        self.roots = set(roots)
        self.depth_bound = depth_bound

    def init(self, ctx: NodeContext) -> Dict:
        if ctx.v in self.roots:
            ctx.state["claim"] = (ctx.uid, None, 0)  # root uid, parent, depth
            return {NodeProgram.BROADCAST: (ctx.uid, 0)}
        ctx.state["claim"] = None
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        best = ctx.state["claim"]
        changed = False
        for sender, (root_uid, depth) in inbox.items():
            offer = (root_uid, sender, depth + 1)
            if best is None or (offer[0], offer[2]) < (best[0], best[2]):
                best = offer
                changed = True
        ctx.state["claim"] = best
        if round_index >= self.depth_bound:
            ctx.finish(best)
            return {}
        if changed and best is not None:
            return {NodeProgram.BROADCAST: (best[0], best[2])}
        return {}


# ----------------------------------------------------------------------
# Color trials, Cole–Vishkin reduction and the sinkless fix-up as
# per-node programs: the oracle their array programs (TrialColoring,
# ColorReduceCV, SinklessFixupProgram) are held to
# ----------------------------------------------------------------------
_TRY, _KEEP = "t", "k"


class NodeTrialColoring(NodeProgram):
    """Randomized (deg+1) color trials with UID tiebreaks.

    Each node's palette is {0, ..., deg(v)}, so a free color always
    exists; the output is a proper coloring with at most Δ+1 colors.
    Two rounds per iteration: propose, then resolve.
    """

    def init(self, ctx: NodeContext) -> Dict:
        ctx.state["taken"] = set()       # colors finalized by neighbors
        ctx.state["live"] = set(ctx.neighbors)
        ctx.state["proposal"] = None
        ctx.state["nbr_proposals"] = {}
        return {}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        st = ctx.state
        for sender, message in inbox.items():
            if message[0] == _KEEP:
                st["taken"].add(message[1])
                st["live"].discard(sender)
            elif message[0] == _TRY:
                st["nbr_proposals"][sender] = (message[1], message[2])

        if round_index % 2 == 1:
            st["nbr_proposals"] = {}
            palette = [c for c in range(ctx.degree + 1)
                       if c not in st["taken"]]
            choice = palette[ctx.rand_uniform(len(palette))]
            st["proposal"] = choice
            return {u: (_TRY, choice, ctx.uid) for u in st["live"]}

        proposal = st["proposal"]
        if proposal is None:
            return {}
        conflict = any(
            color == proposal and uid > ctx.uid
            for color, uid in st["nbr_proposals"].values()
        )
        if proposal in st["taken"]:
            conflict = True
        if conflict:
            st["proposal"] = None
            return {}
        out = {u: (_KEEP, proposal) for u in st["live"]}
        ctx.finish(proposal)
        return out


def _first_difference(a: int, b: int) -> Tuple[int, int]:
    """Index and value of the lowest bit where a and b differ."""
    diff = a ^ b
    index = (diff & -diff).bit_length() - 1
    return index, (a >> index) & 1


class NodeColorReduceCV(NodeProgram):
    """Cole–Vishkin color reduction on oriented paths and cycles.

    Requires every node to have degree <= 2. The orientation is by
    index: each node's *successor* is its larger-index neighbor (for a
    cycle, the successor of the max node wraps to its smaller neighbor),
    so the successor relation is locally computable and consistent.

    Phase 1 (O(log* n) iterations): new_color = 2*i + bit where i is the
    first bit position where my color differs from my successor's (end
    nodes with no successor just shrink against 0). Stops when all
    colors are < 6. Phase 2 (3 iterations): shift-down + recolor removes
    colors 5, 4, 3 one at a time, ending with a proper 3-coloring.
    """

    def __init__(self, rounds_cap: int = 64):
        self.rounds_cap = rounds_cap

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _successor(ctx: NodeContext) -> Optional[int]:
        bigger = [u for u in ctx.neighbors if u > ctx.v]
        if bigger:
            return min(bigger)
        # Max node of a cycle: wrap to its smallest neighbor to keep the
        # successor function a bijection on the cycle. End of path: none.
        if ctx.degree == 2:
            return min(ctx.neighbors)
        return None

    def init(self, ctx: NodeContext) -> Dict:
        if ctx.degree > 2:
            raise ConfigurationError(
                "Cole–Vishkin reduction needs max degree 2"
            )
        ctx.state["color"] = ctx.uid
        ctx.state["stage"] = "reduce"
        ctx.state["shift_target"] = 5
        return {NodeProgram.BROADCAST: ctx.state["color"]}

    def step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Dict:
        color = ctx.state["color"]
        successor = self._successor(ctx)

        if ctx.state["stage"] == "reduce":
            succ_color = inbox.get(successor, 0) if successor is not None else 0
            if successor is None:
                # Path endpoint: differ from an imaginary 0-colored
                # successor (or 1 if we are 0).
                succ_color = 0 if color != 0 else 1
            index, bit = _first_difference(color, succ_color)
            new_color = 2 * index + bit
            ctx.state["color"] = new_color
            # Everyone's colors shrink in lock-step; once 6 rounds of
            # log-shrink have passed, every color is < 6 for any n that
            # fits in memory (log* of 2^64 is 5). Switch stages together.
            if round_index >= min(self.rounds_cap, log_star(2 ** 64) + 2):
                ctx.state["stage"] = "shift"
            return {NodeProgram.BROADCAST: ctx.state["color"]}

        # Shift-down stage: remove colors 5, 4, 3 in three synchronized
        # sub-rounds. A node with the target color recolors to the
        # smallest color unused by its neighbors (both of them); other
        # nodes keep their color. Neighbor colors are in the inbox.
        neighbor_colors = set(inbox.values())
        target = ctx.state["shift_target"]
        if color == target:
            new_color = 0
            while new_color in neighbor_colors:
                new_color += 1
            ctx.state["color"] = new_color
        ctx.state["shift_target"] = target - 1
        if target == 3:
            ctx.finish(ctx.state["color"])
            return {}
        return {NodeProgram.BROADCAST: ctx.state["color"]}


class NodeSinklessFixup(NodeProgram):
    """The randomized fix-up as a per-node program.

    Each node tracks, per incident edge, whether its side is outgoing.
    Rounds alternate: on *odd* rounds every current sink flips one
    uniformly chosen incident edge outward and tells that neighbor with
    a one-word message; on *even* rounds flips are absorbed, and nodes
    finish together at the (even) horizon — so no flip is ever in
    flight when anyone halts, and the two endpoints' views of every
    edge agree at termination (two adjacent sinks can never pick the
    same edge: an edge cannot point into both of them).

    Output per node: the frozenset of neighbors its edges point to.
    """

    def __init__(self, min_degree: int = 3, horizon: int = 60):
        self.min_degree = min_degree
        # Horizon must be even so the last round is an absorb round.
        self.horizon = horizon + (horizon % 2)

    def init(self, ctx):
        # Initial orientation: the lower-index endpoint draws the bit
        # and announces it (one O(1)-bit message per edge). All coins
        # come from one bulk read of this node's stream.
        out = {}
        ctx.state["outgoing"] = {}
        upper = [u for u in ctx.neighbors if ctx.v < u]
        for u, bit in zip(upper, ctx.rand_bits(len(upper))):
            out[u] = ("init", bit)
            ctx.state["outgoing"][u] = bool(bit)
        return out

    def step(self, ctx, round_index, inbox):
        outgoing = ctx.state["outgoing"]
        for sender, message in inbox.items():
            if message[0] == "init":
                # bit=1 meant the sender points at us.
                outgoing[sender] = not bool(message[1])
            elif message[0] == "flip":
                outgoing[sender] = False

        if round_index >= self.horizon:
            ctx.finish(frozenset(u for u, o in outgoing.items() if o))
            return {}
        if round_index % 2 == 1:
            constrained = ctx.degree >= self.min_degree
            is_sink = constrained and not any(
                outgoing.get(u, False) for u in ctx.neighbors)
            if is_sink:
                pick = ctx.neighbors[ctx.rand_uniform(ctx.degree)]
                outgoing[pick] = True
                return {pick: ("flip",)}
        return {}


# A RoundFaultPlan's decisions one message at a time, each one
# ``deterministic_uniform`` draw: the oracle for the plan's masks.
def crashes(plan, round_index: int, node: int) -> bool:
    """Does ``node`` crash during round ``round_index``'s sends?"""
    if not plan.crash or round_index < plan.start_round:
        return False
    u = deterministic_uniform(round_index, "sim-crash", plan.seed, node)
    return u < plan.crash


def delivers_on_crash(plan, round_index: int, node: int, target: int) -> bool:
    """Does one send of a node crashing this round still escape?"""
    u = deterministic_uniform(round_index, "sim-crash-send", plan.seed,
                              node, target)
    return u < 0.5


def drops(plan, round_index: int, sender: int, target: int) -> bool:
    """Is the (sender -> target) message of this round lost? Loss is per
    message; churn per edge (both directions drop together)."""
    if round_index < plan.start_round:
        return False
    if plan.loss:
        u = deterministic_uniform(round_index, "sim-loss", plan.seed,
                                  sender, target)
        if u < plan.loss:
            return True
    if plan.churn:
        a, b = (sender, target) if sender <= target else (target, sender)
        u = deterministic_uniform(round_index, "sim-churn", plan.seed, a, b)
        if u < plan.churn:
            return True
    return False


class SyncEngine:
    """The reference round engine ArrayEngine is held to.

    One dict per node per round and no shortcuts: every outbox is
    resolved against ``set(graph.neighbors(v))``, every node is scanned
    every round, every message is measured on delivery. Same parameters
    and semantics as :class:`~repro.sim.batch.array.ArrayEngine`, but
    with a per-node program factory and without ``csr``:
    ``program_factory`` is called once per node index,
    ``model`` is ``LOCAL`` or ``CONGEST``, ``n_override`` lies to the
    nodes about n (Theorem 4.3), ``bandwidth_bits`` defaults to
    ``congest_limit`` of the claimed n, ``max_rounds`` is the safety
    valve and ``uniform`` denies access to n (Section 2).

    ``faults`` (a :class:`~repro.sim.batch.faults.RoundFaultPlan`) makes
    it the fault oracle ArrayEngine's masks are held to, one scalar
    decision per node and message:

    * a node that :func:`crashes` in round r still runs its round-r step
      (draws its randomness, may finish and keep its output); each of
      its round-r sends then escapes per :func:`delivers_on_crash` and
      only escaped sends are ever charged; it never steps again, its
      output frozen;
    * a message the plan :func:`drops` (loss or churn) is charged to its
      sender but never delivered;
    * crash and drop decisions start at the plan's ``start_round``, and
      sends still queued when the run ends are never charged.
    """

    def __init__(self, graph: DistributedGraph,
                 program_factory: Callable[[int], NodeProgram],
                 source: Optional[RandomSource] = None,
                 model: str = LOCAL,
                 n_override: Optional[int] = None,
                 bandwidth_bits: Optional[int] = None,
                 max_rounds: int = 100_000,
                 uniform: bool = False,
                 faults: Any = None):
        if model not in (LOCAL, CONGEST):
            raise ConfigurationError(f"unknown model {model!r}")
        if n_override is not None and n_override < graph.n:
            raise ConfigurationError(
                f"n_override ({n_override}) must be >= actual n ({graph.n}); "
                f"lying about n only inflates the network (Thm 4.3)"
            )
        self.graph = graph
        self.model = model
        self.source = source
        self.claimed_n = n_override if n_override is not None else graph.n
        if bandwidth_bits is not None:
            self.bandwidth = bandwidth_bits
        else:
            self.bandwidth = congest_limit(self.claimed_n)
        self.max_rounds = max_rounds
        self.faults = faults if faults is not None and faults.active else None
        self._programs = {v: program_factory(v) for v in graph.nodes()}
        self._contexts = {
            v: NodeContext(v, graph.uid(v), graph.neighbors(v),
                           self.claimed_n, source, uniform=uniform)
            for v in graph.nodes()
        }

    def _validate_outbox(self, v: int, outbox: Dict[Any, Any]) -> Dict[int, Any]:
        """Resolve broadcast, check addressing and bandwidth.

        Mixed outboxes (a BROADCAST key plus explicit targets) resolve
        with the explicit payload winning for its target regardless of
        dict insertion order: the broadcast fans out first, then the
        explicit entries overwrite.
        """
        if not outbox:
            return {}
        neighbors = set(self.graph.neighbors(v))
        explicit: Dict[int, Any] = {}
        broadcast_payload = None
        has_broadcast = False
        for target, payload in outbox.items():
            if target == NodeProgram.BROADCAST:
                broadcast_payload = payload
                has_broadcast = True
                continue
            if target not in neighbors:
                raise ModelViolation(
                    f"node {v} tried to send to non-neighbor {target!r}"
                )
            explicit[target] = payload
        resolved: Dict[int, Any] = {}
        if has_broadcast:
            for u in neighbors:
                resolved[u] = broadcast_payload
        resolved.update(explicit)
        if self.model == CONGEST:
            for target, payload in resolved.items():
                size = message_bits(payload)
                if size > self.bandwidth:
                    raise BandwidthExceeded(
                        f"node {v} -> {target}: message of {size} bits exceeds "
                        f"CONGEST limit of {self.bandwidth} bits"
                    )
        return resolved

    def run(self) -> AlgorithmResult:
        """Execute until every node finished; return outputs and report."""
        report = RunReport(model=self.model)
        before_bits = self.source.bits_consumed if self.source else 0

        # Round 0: init.
        pending: Dict[int, Dict[int, Any]] = {v: {} for v in self.graph.nodes()}
        outgoing: Dict[int, Dict[int, Any]] = {}
        for v in self.graph.nodes():
            outbox = self._programs[v].init(self._contexts[v]) or {}
            outgoing[v] = self._validate_outbox(v, outbox)

        plan = self.faults
        crashed: Set[int] = set()
        round_index = 0
        while True:
            if all(self._contexts[v].finished or v in crashed
                   for v in self.graph.nodes()):
                break
            round_index += 1
            if round_index > self.max_rounds:
                raise ModelViolation(
                    f"algorithm exceeded max_rounds={self.max_rounds}"
                )
            # Deliver round (round_index)'s messages.
            pending = {v: {} for v in self.graph.nodes()}
            for sender, outbox in outgoing.items():
                for target, payload in outbox.items():
                    report.messages += 1
                    size = message_bits(payload)
                    report.total_bits += size
                    report.max_message_bits = max(report.max_message_bits, size)
                    if plan is None or not drops(plan, round_index, sender,
                                                 target):
                        pending[target][sender] = payload
            # Step every live node.
            outgoing = {}
            for v in self.graph.nodes():
                ctx = self._contexts[v]
                if ctx.finished or v in crashed:
                    continue
                outbox = self._programs[v].step(ctx, round_index, pending[v]) or {}
                outgoing[v] = self._validate_outbox(v, outbox)
                if plan is not None and crashes(plan, round_index, v):
                    crashed.add(v)
                    outgoing[v] = {
                        t: payload for t, payload in outgoing[v].items()
                        if delivers_on_crash(plan, round_index, v, t)}

        report.rounds = round_index
        if self.source is not None:
            report.randomness_bits = self.source.bits_consumed - before_bits
        outputs = {v: self._contexts[v].output for v in self.graph.nodes()}
        return AlgorithmResult(outputs=outputs, report=report)


def run_program(graph: DistributedGraph, program_cls: type,
                source: Optional[RandomSource] = None, model: str = LOCAL,
                **kwargs) -> AlgorithmResult:
    """Run one program class on every node, on the reference engine."""
    return SyncEngine(graph, lambda _v: program_cls(), source=source,
                      model=model, **kwargs).run()


# The primitives' per-node programs on the oracle, with the primitives'
# own signatures, so a test can also patch them in for ``luby_mis``,
# ``flood_min`` and ``build_bfs_forest``.
def oracle_luby_mis(graph: DistributedGraph, source: RandomSource,
                    max_rounds: int = 100_000, faults=None,
                    bandwidth_bits: Optional[int] = None) -> AlgorithmResult:
    return SyncEngine(graph, lambda _v: LubyMIS(), source=source,
                      model=CONGEST, bandwidth_bits=bandwidth_bits,
                      max_rounds=max_rounds, faults=faults).run()


def oracle_flood_min(graph: DistributedGraph, radius: int,
                     model: str = CONGEST, faults=None,
                     bandwidth_bits: Optional[int] = None) -> AlgorithmResult:
    return SyncEngine(graph, lambda _v: FloodMin(radius), model=model,
                      bandwidth_bits=bandwidth_bits, faults=faults).run()


def oracle_bfs_forest(graph: DistributedGraph, roots,
                      depth_bound: Optional[int] = None, faults=None,
                      bandwidth_bits: Optional[int] = None) -> AlgorithmResult:
    bound = graph.n if depth_bound is None else depth_bound
    return SyncEngine(graph, lambda _v: BFSTree(roots, bound), model=CONGEST,
                      bandwidth_bits=bandwidth_bits, max_rounds=bound + 2,
                      faults=faults).run()


def oracle_trial_coloring(graph: DistributedGraph, source: RandomSource,
                          max_rounds: int = 100_000) -> AlgorithmResult:
    return SyncEngine(graph, lambda _v: NodeTrialColoring(), source=source,
                      model=CONGEST, max_rounds=max_rounds).run()


def oracle_three_colors(graph: DistributedGraph) -> AlgorithmResult:
    return SyncEngine(graph, lambda _v: NodeColorReduceCV(), model=CONGEST,
                      max_rounds=200).run()


def oracle_fixup(graph: DistributedGraph, source: RandomSource,
                 min_degree: int = 3, horizon: int = 60) -> AlgorithmResult:
    return SyncEngine(graph, lambda _v: NodeSinklessFixup(min_degree, horizon),
                      source=source, model=CONGEST,
                      max_rounds=horizon + 4).run()


def csr_graph(csr) -> DistributedGraph:
    """The :class:`DistributedGraph` of a bare CSR's edges and UIDs, for
    the oracle (its neighbor lists come out sorted; the CSR's need not
    be)."""
    owner = np.repeat(np.arange(csr.n), csr.degrees)
    upper = owner < csr.indices
    return DistributedGraph(
        EdgeList(csr.n, np.column_stack((owner[upper], csr.indices[upper]))),
        uids=list(csr.uids))


# ----------------------------------------------------------------------
# Per-bit randomness reference
# ----------------------------------------------------------------------
def reference_bit(source: RandomSource, node: object, index: int) -> int:
    """Bit ``index`` of ``node``'s stream of ``source``, derived on its
    own, one bit at a time, from the source's parameters.

    Raises what the source raises for a node without a stream or an
    index outside it. Never touches the source's ledger.
    """
    from repro.randomness import (EpsilonBiasedSource, IndependentSource,
                                  KWiseSource, SparseRandomness,
                                  inner_product_bits)
    from repro.randomness.block import derive_key

    if isinstance(source, IndependentSource):
        if index < 0:
            raise ConfigurationError(
                f"node {node!r} requested negative stream index {index}")
        key = derive_key("repro-independent", source.seed, repr(node))
        digest = hashlib.blake2b((index >> 9).to_bytes(8, "big"), key=key,
                                 digest_size=64).digest()
        return (digest[(index & 511) >> 3] >> (index & 7)) & 1
    if isinstance(source, (KWiseSource, EpsilonBiasedSource)):
        node_i = int(node)
        if not 0 <= node_i < source.num_nodes:
            raise ConfigurationError(
                f"node {node!r} outside [0, {source.num_nodes})")
        if not 0 <= index < source.bits_per_node:
            note = " for a KWiseSource; raise bits_per_node" \
                if isinstance(source, KWiseSource) else ""
            raise ConfigurationError(
                f"bit index {index} outside [0, {source.bits_per_node})"
                f"{note}")
        point = node_i * source.bits_per_node + index
        field = source.field
        if isinstance(source, KWiseSource):
            return field.eval_poly(source._coeffs, point) & 1
        return inner_product_bits(field.pow(source.x, point + 1), source.y)
    if isinstance(source, PooledBits):
        pool = source._pools.get(node)
        if pool is None:
            raise ConfigurationError(f"no pool for key {node!r}")
        if not 0 <= index < len(pool):
            raise RandomnessExhausted(
                f"pool {node!r} has {len(pool)} bits; index {index} requested")
        return int(pool[index])
    if isinstance(source, SharedRandomness):
        if not 0 <= index < source.seed_bits:
            raise RandomnessExhausted(
                f"shared string has {source.seed_bits} bits; "
                f"index {index} requested")
        return int(source._bits[index])
    if isinstance(source, SparseRandomness):
        if node not in source.holders:
            raise ModelViolation(
                f"node {node!r} holds no randomness (not in S); "
                f"sparse model allows bits only at holders")
        if index != 0:
            raise ModelViolation(
                f"holder {node!r} has a single bit; index {index} requested")
        return source._values[node]
    raise TypeError(f"no per-bit reference for {type(source).__name__}")


class PerBitReader:
    """Every public :class:`RandomSource` reader, read one bit at a time
    against a per-bit set ledger: the semantics the block readers must
    reproduce.

    Bits come from :func:`reference_bit` on ``source``, which is used
    for its parameters and its bit budget only. Each bit is checked
    against its stream first (the source's range error), then, if not
    yet served, against the budget; only then is it recorded. Bulk
    readers are per-node loops of the scalar ones.
    """

    def __init__(self, source: RandomSource):
        self.source = source
        self.budget = source._bit_budget
        self.served: Dict[object, Set[int]] = {}  # first-metered order

    # -- readers --------------------------------------------------------
    def bit(self, node: object, index: int) -> int:
        value = reference_bit(self.source, node, index)
        seen = self.served.get(node, ())
        if index not in seen:
            if self.budget is not None \
                    and self.bits_consumed >= self.budget:
                raise RandomnessExhausted(
                    f"bit budget of {self.budget} bits exhausted "
                    f"(node {node!r} requested index {index})")
            self.served.setdefault(node, set()).add(index)
        return value

    def bits_block(self, node: object, count: int,
                   offset: int = 0) -> List[int]:
        return [self.bit(node, offset + i) for i in range(max(count, 0))]

    bits = bits_block

    def uniform_int(self, node: object, bound: int,
                    offset: int = 0) -> Tuple[int, int]:
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0, 0
        width = (bound - 1).bit_length()
        used = 0
        for _ in range(64):
            value = 0
            for _i in range(width):
                value = (value << 1) | self.bit(node, offset + used)
                used += 1
            if value < bound:
                return value, used
        raise RandomnessExhausted(
            f"rejection sampling for bound {bound} did not converge")

    def geometric(self, node: object, cap: int,
                  offset: int = 0) -> Tuple[int, int]:
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")
        for k in range(1, cap + 1):
            if self.bit(node, offset + k - 1) == 0:
                return k, k
        return cap, cap

    def bits_each(self, nodes, count, offset=0):
        """Per-node ``bits_block``; per-node offsets (an array) start
        each lane at its own, per-node counts (an array) return every
        lane's bits back to back."""
        rows = [self.bits_block(v, c, o) for v, c, o in
                zip(nodes, _per_lane(count, nodes), _per_lane(offset, nodes))]
        if np.ndim(count):
            return [bit for row in rows for bit in row]
        return rows

    def uniform_int_each(self, nodes, bound, offsets):
        bounds = _per_lane(bound, nodes)
        for b in bounds:
            if b <= 0:
                raise ConfigurationError(f"bound must be positive, got {b}")
        draws = [self.uniform_int(v, b, int(o))
                 for v, b, o in zip(nodes, bounds, offsets)]
        return [v for v, _ in draws], [u for _, u in draws]

    def geometrics(self, nodes, cap: int, offset: int = 0):
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")
        draws = [self.geometric(v, cap, offset) for v in nodes]
        return [v for v, _ in draws], [u for _, u in draws]

    # -- ledger ---------------------------------------------------------
    @property
    def bits_consumed(self) -> int:
        return sum(len(seen) for seen in self.served.values())

    def ledger(self) -> Dict[object, Tuple[List[int], List[int]]]:
        """Every node's served indices as maximal runs ``(starts, ends)``."""
        out = {}
        for node, seen in self.served.items():
            starts = [i for i in sorted(seen) if i - 1 not in seen]
            ends = [next(j for j in itertools.count(i) if j not in seen)
                    for i in starts]
            out[node] = (starts, ends)
        return out


def _per_lane(value, nodes) -> List[int]:
    """A scalar as every lane's value, an array as each lane's own."""
    if np.ndim(value):
        return [int(x) for x in value]
    return [value] * len(nodes)


def source_ledger(source: RandomSource) -> Dict[object, Tuple[List[int], List[int]]]:
    """A source's interval ledger, node by node, as ``(starts, ends)``."""
    return {v: (source._ledgers[v].starts, source._ledgers[v].ends)
            for v in source.nodes_touched()}


def _plain(value):
    """Arrays as lists, recursively, so results compare with ``==``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def read_outcome(call: Callable[[], Any]):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return _plain(call()), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def assert_like_per_bit(make: Callable[[], RandomSource],
                        read: Callable[[Any], Any]):
    """Run ``read`` on a fresh source and on the per-bit reference of a
    twin: same values (``used`` included), same exception type and
    text, same ledger intervals, node order and ``bits_consumed``.
    Returns the error, if any, and the source after the read."""
    source, reference = make(), PerBitReader(make())
    got = read_outcome(lambda: read(source))
    want = read_outcome(lambda: read(reference))
    assert got == want
    assert list(source.nodes_touched()) == list(reference.served)
    assert source_ledger(source) == reference.ledger()
    assert source.bits_consumed == reference.bits_consumed
    for node in reference.served:
        assert source.bits_consumed_by(node) == len(reference.served[node])
    return want[1], source
