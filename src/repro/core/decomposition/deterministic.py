"""Deterministic network decomposition by ball carving.

Plays the role of the Panconesi–Srinivasan 2^O(sqrt(log n)) deterministic
algorithm [PS92] / the [Gha19] cluster-graph decomposition inside
Theorem 4.2: whenever the paper says "now finish deterministically", this
is the module that runs. (A substitution: at laptop scale what matters is
a *valid deterministic* construction with (O(log n), O(log n))
parameters, and the classic sequential ball-carving argument of
[AGLP89]/[LS93] gives exactly that.)

The construction runs O(log n) color phases. In each phase it scans the
still-unclustered nodes in UID order; around each free node it grows a
ball in the induced subgraph of free nodes, stopping at the first radius
where the ball stops doubling (|B(v, r+1)| <= 2 |B(v, r)|, which must
happen by radius log2(n)). The inner ball becomes a cluster of this
phase's color; the boundary shell B(v, r+1) \\ B(v, r) is set aside for
later phases, which keeps same-phase clusters non-adjacent. At least half
of every processed ball is clustered, so each phase clusters at least
half of the nodes it touches and O(log n) phases empty the graph.

Guarantees: at most ``ceil(log2 n) + 1`` colors, strong cluster diameter
at most ``2 ceil(log2 n)``, congestion 1. This is an SLOCAL-flavoured
algorithm (locality O(log n) per decision); the report accounts rounds as
``colors * (2 log n + 2)`` cluster-graph sweeps — the cost its consumers
(Theorem 4.2's cluster graph, MIS/coloring reductions) charge per phase.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...sim.graph import DistributedGraph
from ...sim.messages import ceil_log2
from ...sim.metrics import RunReport
from ...structures import Decomposition


def ball_carving(offsets: np.ndarray, indices: np.ndarray,
                 priority: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Core carving loop on a CSR adjacency.

    Each phase scans the uncarved nodes in ascending ``priority`` (ties
    by index). Returns ``(ball, color)``: ``ball`` is ``int64[n]``, each
    node's ball numbered in carving order, and ``color`` is
    ``int64[balls]``, each ball's phase.
    """
    n = offsets.size - 1
    max_radius = ceil_log2(n)
    # Balls are small, so growth walks the CSR as Python lists: one
    # numpy pass per BFS level would cost more than the level itself.
    heads, bounds = indices.tolist(), offsets.tolist()
    order = sorted(range(n), key=priority.__getitem__)
    ball = [-1] * n
    colors: List[int] = []
    color = 0
    while order:
        free = [b < 0 for b in ball]  # nodes available within this phase
        for v in order:
            if free[v]:
                for u in _grow_ball(heads, bounds, v, free, max_radius):
                    ball[u] = len(colors)
                colors.append(color)
        order = [v for v in order if ball[v] < 0]
        color += 1
        if color > 2 * max_radius + 4:
            raise ConfigurationError(
                "ball carving failed to terminate; this indicates a bug"
            )
    return np.array(ball, dtype=np.int64), np.array(colors, dtype=np.int64)


def _grow_ball(heads: List[int], bounds: List[int], v: int,
               free: List[bool], max_radius: int) -> List[int]:
    """Grow B(v, r) in G[free] until |B(v, r+1)| <= 2 |B(v, r)|.

    Takes the ball and its shell B(v, r+1) \\ B(v, r) out of ``free``
    and returns the ball's nodes.
    """
    free[v] = False
    ball, layer = [v], [v]
    radius = 0
    while True:
        shell = []
        for x in layer:
            for y in heads[bounds[x]:bounds[x + 1]]:
                if free[y]:
                    free[y] = False
                    shell.append(y)
        if len(shell) <= len(ball) or radius >= max_radius:
            return ball
        ball += shell
        layer = shell
        radius += 1


def deterministic_decomposition(
    graph: DistributedGraph,
) -> Tuple[Decomposition, RunReport]:
    """Deterministic (O(log n), O(log n)) decomposition of the graph.

    Scan order is by UID, the only symmetry breaker a deterministic
    algorithm has. Cluster ``i`` is the ``i``-th ball carved.
    """
    ball, color = ball_carving(graph.csr.offsets, graph.csr.indices,
                               graph.csr.uids)
    cluster_of = dict(enumerate(ball.tolist()))
    color_of = dict(enumerate(color.tolist()))

    logn = ceil_log2(graph.n)
    colors = len(set(color_of.values()))
    report = RunReport(
        rounds=colors * (2 * logn + 2),
        accounted=True,
        model="LOCAL",
        notes=[
            "deterministic ball carving; stands in for [PS92] "
            "(see DESIGN.md substitutions); rounds = colors * (2 log n + 2)"
        ],
    )
    return Decomposition(cluster_of=cluster_of, color_of=color_of), report


def improve_decomposition(
    graph: DistributedGraph,
    coarse: Decomposition,
) -> Tuple[Decomposition, RunReport]:
    """[ABCP96]: any (d, c)-decomposition → an (O(log n), O(log n)) one.

    Corollaries 4.4/4.5 use this transformation: a deterministic
    algorithm producing a decomposition with *any* parameters d(n), c(n)
    yields a strong-diameter (O(log n), O(log n))-decomposition at an
    extra deterministic cost of O(d · c · log² n) LOCAL rounds. The
    refined structure is computed by ball carving (our [PS92]-role
    construction); the *rounds* are accounted from the coarse
    decomposition's measured parameters per the [ABCP96] bound, which is
    what the corollaries charge.
    """
    problems = coarse.violations(graph)
    if problems:
        raise ConfigurationError(
            f"coarse decomposition is invalid: {problems[:2]}"
        )
    refined, _ball_report = deterministic_decomposition(graph)
    logn = ceil_log2(graph.n)
    d = coarse.max_weak_diameter(graph)
    c = coarse.num_colors()
    report = RunReport(
        rounds=max(1, d) * max(1, c) * logn * logn,
        accounted=True,
        model="LOCAL",
        notes=[
            f"[ABCP96] improvement: O(d*c*log^2 n) = "
            f"{d}*{c}*{logn}^2 rounds from the coarse (d={d}, c={c}) input"
        ],
    )
    return refined, report
