"""(α, β)-ruling sets [AGLP89], the paper's deterministic workhorse.

Given G, a subset U of nodes, and α >= 1, an (α, β)-ruling set is an
S ⊆ U with pairwise distance >= α whose β-balls cover U. The paper uses
them twice: Lemma 3.2 spaces out cluster centers so each cluster traps
enough sparse random bits, and Theorem 4.2 separates the unclustered
leftovers so a union bound applies.

We compute ruling sets with the sequential greedy: scan U in UID
order, select a node unless a previously selected node lies
within distance α-1. That yields an (α, α-1)-ruling set — domination
even better than the (α, α log n) of the distributed AGLP algorithm.
Round accounting follows the AGLP/[HKN16] bound of O(α log n) CONGEST
rounds, which is what every theorem statement in the paper charges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.graph import DistributedGraph
from ..sim.messages import ceil_log2
from ..sim.metrics import RunReport


def greedy_ruling_set(graph: DistributedGraph, alpha: int,
                      subset: Optional[Iterable[int]] = None
                      ) -> Tuple[Set[int], RunReport]:
    """Compute an (α, α-1)-ruling set of ``subset`` (default: all nodes).

    Selection order is by UID: deterministic, as the paper's
    deterministic constructions require.

    Returns the set S and an accounted :class:`RunReport` with the
    O(α log n) AGLP round bound.
    """
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha}")
    universe = sorted(graph.nodes() if subset is None else subset,
                      key=graph.uid)

    selected: Set[int] = set()
    blocked: Set[int] = set()
    for v in universe:
        if v in blocked:
            continue
        selected.add(v)
        # Block the (α-1)-ball of v: nothing else may be selected there.
        blocked.update(graph.ball(v, alpha - 1).keys())

    logn = ceil_log2(graph.n)
    report = RunReport(
        rounds=alpha * logn,
        accounted=True,
        model="CONGEST",
        notes=[f"AGLP ruling set accounting: O(alpha log n) = {alpha}*{logn} rounds"],
    )
    return selected, report


def verify_ruling_set(graph: DistributedGraph, selected: Set[int],
                      alpha: int, beta: int,
                      subset: Optional[Iterable[int]] = None) -> List[str]:
    """All violations of S being an (α, β)-ruling set w.r.t. ``subset``."""
    problems: List[str] = []
    universe = set(subset) if subset is not None else set(graph.nodes())
    stray = selected - universe
    if stray:
        problems.append(f"selected nodes outside U: {sorted(stray)[:3]}")
    for s in selected:
        ball = graph.ball(s, alpha - 1)
        close = [t for t in selected if t != s and t in ball]
        if close:
            problems.append(f"nodes {s},{close[0]} in S at distance <= {alpha - 1}")
    dominated: Set[int] = set()
    for s in selected:
        dominated.update(graph.ball(s, beta).keys())
    uncovered = universe - dominated
    if uncovered:
        problems.append(
            f"{len(uncovered)} U-nodes beyond distance {beta} of S "
            f"(e.g. {sorted(uncovered)[:3]})"
        )
    return problems


def voronoi_clusters(graph: DistributedGraph, centers: Iterable[int],
                     restrict_to: Optional[Set[int]] = None
                     ) -> Dict[int, int]:
    """Assign each node to its nearest center (ties: smaller center UID).

    This is the "each node joins the cluster of the nearest R-node"
    step of Lemma 3.2, implemented as a multi-source BFS so that the
    assignment is realizable by the ``h' log n``-round flooding the lemma
    describes. If ``restrict_to`` is given, the BFS only traverses (and
    assigns) those nodes.

    Returns node -> center.
    """
    center_list = sorted(centers, key=graph.uid)
    if not center_list:
        raise ConfigurationError("at least one center required")
    allowed = restrict_to if restrict_to is not None else set(graph.nodes())
    assignment: Dict[int, int] = {}
    frontier: List[Tuple[int, int]] = []
    for c in center_list:
        if c not in allowed:
            raise ConfigurationError(f"center {c} outside the restricted set")
        assignment[c] = c
        frontier.append((c, c))
    while frontier:
        next_frontier: List[Tuple[int, int]] = []
        # Process in (center uid) order so ties go to the smaller-UID
        # center deterministically, matching "only the first name is
        # propagated" in Lemma 3.2.
        for v, center in frontier:
            for u in graph.neighbors(v):
                if u in allowed and u not in assignment:
                    assignment[u] = center
                    next_frontier.append((u, center))
        frontier = next_frontier
    return assignment


def ruling_set_via_mis(graph: DistributedGraph, alpha: int,
                       source=None, seed: int = 0
                       ) -> Tuple[Set[int], RunReport]:
    """Randomized distributed (α, α-1)-ruling set: MIS of G^(α-1).

    The classic reduction: an MIS of the power graph G^(α-1) is
    α-independent (selected nodes are at distance >= α in G) and
    dominating at radius α-1. The MIS is computed by Luby's algorithm —
    genuinely distributed — and one G^(α-1) round costs α-1 rounds of G,
    which the report accounts on top of the measured MIS rounds.

    Complements :func:`greedy_ruling_set` (deterministic, orchestrated)
    with the randomized engine-backed construction.
    """
    from .mis import luby_mis

    if alpha < 2:
        raise ConfigurationError("alpha must be >= 2 for the MIS route")
    if source is None:
        from ..randomness.independent import IndependentSource

        source = IndependentSource(seed=seed)
    power = graph.power_graph(alpha - 1)
    result = luby_mis(power, source)
    selected = {v for v, flag in result.outputs.items() if flag}
    report = RunReport(
        rounds=result.report.rounds * (alpha - 1),
        messages=result.report.messages,
        total_bits=result.report.total_bits,
        max_message_bits=result.report.max_message_bits,
        randomness_bits=result.report.randomness_bits,
        accounted=True,
        model="CONGEST",
        notes=[
            f"ruling set as MIS of G^{alpha - 1}: measured "
            f"{result.report.rounds} power-graph rounds x (alpha-1)"
        ],
    )
    return selected, report


def cluster_adjacency(graph: DistributedGraph, assignment: Dict[int, int]
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster graph (the logical graph CG of Lemma 3.3) as a CSR.

    ``assignment`` maps nodes to their cluster's center; nodes it omits
    belong to no cluster. Returns ``(offsets, indices, centers)``: vertex
    ``i`` is the cluster of ``centers[i]`` (the centers, sorted), and two
    vertices are adjacent iff their clusters contain adjacent nodes. The
    edges come from one ``np.unique`` over the cluster-id pairs of G's
    arcs, which also sorts every neighbor list.
    """
    members = np.fromiter(assignment.keys(), dtype=np.int64,
                          count=len(assignment))
    owners = np.fromiter(assignment.values(), dtype=np.int64,
                         count=len(assignment))
    centers, dense = np.unique(owners, return_inverse=True)
    k = centers.size
    cluster = np.full(graph.n, -1, dtype=np.int64)
    cluster[members] = dense
    tails = cluster[np.repeat(np.arange(graph.n), graph.csr.degrees)]
    heads = cluster[graph.csr.indices]
    cross = (tails >= 0) & (heads >= 0) & (tails != heads)
    pairs = np.unique(tails[cross] * k + heads[cross])
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs // k, minlength=k), out=offsets[1:])
    return offsets, pairs % k, centers
