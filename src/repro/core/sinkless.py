"""Sinkless orientation — the exponential-separation landmark (§1.1).

Orient every edge so that each node of degree >= 3 has at least one
outgoing edge. Brandt et al. [BFH+16] proved an Ω(log log n) randomized
lower bound; Chang et al. [CKP16] lifted it to Ω(log n) deterministic;
Ghaffari–Su [GS17] matched both — the canonical exponential separation
*below* the poly(log n) regime the rest of the paper lives in.

We implement:

* :func:`deterministic_orientation` — a deterministic baseline via
  bipartite matching (each constrained node is matched to a private
  incident edge which is oriented outward; Hall's condition holds
  whenever a sinkless orientation exists at all). Centralized — it plays
  the role of "the slow deterministic side" of the separation.
* :func:`randomized_orientation` — the randomized fix-up process: orient
  every edge by a fair coin, then repeatedly let every remaining sink
  flip one uniformly random incident edge outward. Two adjacent nodes
  can never claim the same edge (an edge cannot point into both), so
  flips commute; experiment E10 measures the number of fix-up rounds.
  On random 3-regular graphs (30 trials per size) their average rises
  from 7.1 at n = 270 to 21.3 at n = 21,870, i.e. from 0.88 log₂n to
  1.48 log₂n: at least logarithmic growth, not the Θ(log log n) of
  [GS17]'s shattering algorithm, which this process is not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..randomness.source import RandomSource
from ..sim.batch.array import ArrayContext, ArrayEngine, ArrayProgram, Sends
from ..sim.batch.csr import bfs_distances, component_labels
from ..sim.graph import DistributedGraph
from ..sim.messages import CONGEST, message_bits
from ..sim.metrics import RunReport

Orientation = Dict[Tuple[int, int], Tuple[int, int]]  # edge -> (tail, head)

#: The fix-up's two messages: a coin announcement and a flip.
_INIT_BITS = message_bits(("init", 0))
_FLIP_BITS = message_bits(("flip",))


def _canonical(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def sinks(graph: DistributedGraph, orientation: Orientation,
          min_degree: int = 3) -> Set[int]:
    """Nodes of degree >= min_degree with no outgoing edge."""
    has_out: Set[int] = set()
    for tail, _head in orientation.values():
        has_out.add(tail)
    return {
        v for v in graph.nodes()
        if graph.degree(v) >= min_degree and v not in has_out
    }


def is_sinkless(graph: DistributedGraph, orientation: Orientation,
                min_degree: int = 3) -> bool:
    """Full validity: every edge oriented, no constrained sink."""
    for u, v in graph.edges():
        key = _canonical(u, v)
        if key not in orientation:
            return False
        tail, head = orientation[key]
        if {tail, head} != {u, v}:
            return False
    return not sinks(graph, orientation, min_degree)


def deterministic_orientation(graph: DistributedGraph,
                              min_degree: int = 3
                              ) -> Tuple[Orientation, RunReport]:
    """Sinkless orientation via bipartite node-to-edge matching.

    Raises :class:`ConfigurationError` when no sinkless orientation
    exists (e.g. trees whose constrained nodes outnumber their incident
    edge budget).
    """
    import networkx as nx  # lazy: no table runs this baseline

    constrained = [v for v in graph.nodes() if graph.degree(v) >= min_degree]
    edge_list = [_canonical(u, v) for u, v in graph.edges()]
    bipartite = nx.Graph()
    bipartite.add_nodes_from((("n", v) for v in constrained), bipartite=0)
    bipartite.add_nodes_from((("e", e) for e in edge_list), bipartite=1)
    for v in constrained:
        for u in graph.neighbors(v):
            bipartite.add_edge(("n", v), ("e", _canonical(v, u)))
    matching = nx.bipartite.maximum_matching(
        bipartite, top_nodes=[("n", v) for v in constrained])
    orientation: Orientation = {}
    for v in constrained:
        mate = matching.get(("n", v))
        if mate is None:
            raise ConfigurationError(
                f"graph admits no sinkless orientation: node {v} "
                f"(degree {graph.degree(v)}) cannot be served"
            )
        edge = mate[1]
        other = edge[1] if edge[0] == v else edge[0]
        orientation[edge] = (v, other)
    for edge in edge_list:
        if edge not in orientation:
            orientation[edge] = edge  # arbitrary: low index -> high index
    report = RunReport(
        rounds=0, accounted=True, model="LOCAL",
        notes=["centralized matching baseline (the deterministic side of "
               "the separation is Θ(log n) distributed [CKP16, GS17])"],
    )
    return orientation, report


def tree_orientation(graph: DistributedGraph, min_degree: int = 3
                     ) -> Tuple[Orientation, RunReport]:
    """Deterministic sinkless orientation of a tree (or forest).

    Root each tree at a leaf (any node of degree < ``min_degree``; one
    exists in every finite tree) and orient every edge parent → child:
    internal nodes keep their child edges outgoing, the root and the
    leaves are exempt from the constraint by degree. This is the
    Θ(log n)-deterministic-side construction of the [GS17]/[CKP16]
    separation, implemented as a BFS orientation with O(diameter)
    accounted rounds.

    Raises :class:`ConfigurationError` on non-forests or if some tree
    has no exempt node to root at (impossible for ``min_degree >= 2``).
    """
    offsets, indices = graph.csr.offsets, graph.csr.indices
    label = component_labels(offsets, indices)
    size = np.bincount(label)
    if graph.m != graph.n - size.size:
        raise ConfigurationError("tree_orientation requires a forest")
    roots: Dict[int, int] = {}
    for v in graph.nodes():
        c = int(label[v])
        if size[c] > 1 and graph.degree(v) < min_degree and (
                c not in roots or graph.uid(v) < graph.uid(roots[c])):
            roots[c] = v
    if len(roots) < np.count_nonzero(size > 1):
        raise ConfigurationError(
            "no feasible root: every node is constrained"
        )
    # One BFS from every root at once; in a tree the parent of an edge
    # is its endpoint nearer the root.
    dist = bfs_distances(offsets, indices, list(roots.values())).tolist()
    orientation: Orientation = {
        (u, v): (u, v) if dist[u] < dist[v] else (v, u)
        for u, v in graph.edges()}
    depth = max(0, max(dist))
    report = RunReport(
        rounds=depth + 1,
        accounted=True,
        model="CONGEST",
        notes=["leaf-rooted BFS orientation; rounds = tree depth"],
    )
    return orientation, report


def randomized_orientation(
    graph: DistributedGraph,
    source: RandomSource,
    min_degree: int = 3,
    max_rounds: int = 10_000,
) -> Tuple[Optional[Orientation], RunReport, Dict[str, object]]:
    """Random orientation plus iterated sink fix-up.

    Per round, every current sink flips one uniformly chosen incident
    edge outward; rounds until sink-free are measured. Returns
    ``(orientation | None, report, extra)`` with ``extra['fixup_rounds']``
    and the sink-count trajectory.
    """
    orientation: Orientation = {}
    cursor: Dict[int, int] = {}

    # Initial coin per edge, drawn from the lower endpoint's stream.
    # Edges arrive u-major from graph.edges(), so each node's coins are
    # a contiguous prefix of its stream — one read over every owner.
    edges_of: Dict[int, List[Tuple[int, int]]] = {}
    for u, v in graph.edges():
        a, b = _canonical(u, v)
        edges_of.setdefault(a, []).append((a, b))
    owners = list(edges_of)
    counts = np.array([len(edges_of[a]) for a in owners], dtype=np.int64)
    coins = source.bits_each(owners, counts).tolist()
    owned = (edge for a in owners for edge in edges_of[a])
    for (x, y), bit in zip(owned, coins):
        orientation[(x, y)] = (x, y) if bit else (y, x)
    cursor.update(zip(owners, counts.tolist()))

    trajectory: List[int] = []
    rounds = 0
    current = sinks(graph, orientation, min_degree)
    trajectory.append(len(current))
    while current and rounds < max_rounds:
        rounds += 1
        # Every sink draws one incident edge, in one read in node order.
        order = sorted(current)
        picks, used = source.uniform_int_each(
            order, np.array([graph.degree(v) for v in order], dtype=np.int64),
            [cursor.get(v, 0) for v in order])
        for v, value, bits in zip(order, picks.tolist(), used.tolist()):
            cursor[v] = cursor.get(v, 0) + bits
            other = graph.neighbors(v)[value]
            orientation[_canonical(v, other)] = (v, other)
        current = sinks(graph, orientation, min_degree)
        trajectory.append(len(current))

    report = RunReport(
        rounds=rounds, model="LOCAL", accounted=True,
        randomness_bits=sum(cursor.values()),
        notes=["fix-up rounds measured; each round is O(1) LOCAL rounds"],
    )
    extra = {"fixup_rounds": rounds, "sink_trajectory": trajectory}
    if current:
        return None, report, extra
    return orientation, report, extra


class SinklessFixupProgram(ArrayProgram):
    """Engine version of the randomized fix-up (genuine message passing).

    Each node tracks, per incident edge, whether its side is outgoing
    (here one ``bool`` per CSR arc). In round 0 the lower-index endpoint
    of every edge draws its coin and announces it (one O(1)-bit message
    per edge; a node's coins are one read of its stream). Rounds then
    alternate: on *odd* rounds every current sink flips one uniformly
    chosen incident edge outward and tells that neighbor with a one-word
    message; on *even* rounds flips are absorbed, and nodes finish
    together at the (even) horizon — so no flip is ever in flight when
    anyone halts, and the two endpoints' views of every edge agree at
    termination (two adjacent sinks can never pick the same edge: an
    edge cannot point into both of them). Every coin and flip read is
    one read over its nodes in node order, so outputs, reports and the
    randomness ledger equal the per-node program's bit for bit.

    Output per node: the frozenset of neighbors its edges point to.
    """

    def __init__(self, min_degree: int = 3, horizon: int = 60):
        self.min_degree = min_degree
        # Horizon must be even so the last round is an absorb round.
        self.horizon = horizon + (horizon % 2)

    def init(self, ctx: ArrayContext) -> Optional[Sends]:
        nbr = ctx.indices
        self.owner = owner = np.repeat(ctx.all_nodes, ctx.degrees)
        # The arcs sorted by (nbr, owner) reverse those sorted by
        # (owner, nbr), the arcs being symmetric.
        forward = np.lexsort((nbr, owner))
        self.reverse = np.empty_like(forward)
        self.reverse[forward] = np.lexsort((owner, nbr))
        upper = owner < nbr
        counts = np.bincount(owner[upper], minlength=ctx.size)
        drawers = np.flatnonzero(counts)
        counts = counts[drawers]
        # bit=1 means the lower endpoint points at the upper one.
        self.out = np.zeros(nbr.size, dtype=bool)
        self.out[upper] = ctx.rand_bits_each(drawers, counts)
        self.out[~upper] = ~self.out[self.reverse[~upper]]
        return ctx.fanout(drawers, counts, _INIT_BITS)

    def step(self, ctx: ArrayContext, round_index: int) -> Optional[Sends]:
        if round_index >= self.horizon:
            heads = ctx.indices.tolist()
            out = self.out.tolist()
            bounds = ctx.offsets.tolist()
            ctx.finish(ctx.all_nodes, [
                frozenset(u for u, o in zip(heads[a:b], out[a:b]) if o)
                for a, b in zip(bounds, bounds[1:])])
            return None
        if round_index % 2 == 0:
            return None
        has_out = np.zeros(ctx.size, dtype=bool)
        has_out[self.owner[self.out]] = True
        sinks = np.flatnonzero((ctx.degrees >= self.min_degree) & ~has_out)
        if not sinks.size:
            return None
        picks = ctx.offsets[sinks] + ctx.rand_uniform_each(
            sinks, ctx.degrees[sinks])
        # The neighbor absorbs the flip next round; no node reads its
        # edges before then, so both sides turn now.
        self.out[picks] = True
        self.out[self.reverse[picks]] = False
        return ctx.fanout(sinks, np.ones(sinks.size, dtype=np.int64),
                          _FLIP_BITS)


def randomized_orientation_engine(graph: DistributedGraph,
                                  source: RandomSource,
                                  min_degree: int = 3,
                                  horizon: int = 60):
    """Run the fix-up process on the array engine; returns
    (orientation, result).

    The caller should validate with :func:`is_sinkless` — like any
    fixed-horizon Monte Carlo process, an (exponentially unlikely)
    non-converged run yields a sink.
    """
    engine = ArrayEngine(graph, SinklessFixupProgram(min_degree, horizon),
                         source=source, model=CONGEST,
                         max_rounds=horizon + 4)
    result = engine.run()
    orientation: Orientation = {}
    for u, v in graph.edges():
        u_out = v in result.outputs[u]
        v_out = u in result.outputs[v]
        assert u_out != v_out, f"inconsistent edge ({u},{v}) at termination"
        orientation[(u, v)] = (u, v) if u_out else (v, u)
    return orientation, result
