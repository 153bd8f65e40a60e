"""The [GKM17]/[GHK18] reduction: SLOCAL algorithms → LOCAL via decomposition.

This is the reason network decomposition is *complete* for the
P-RLOCAL vs. P-LOCAL question (Section 1.1 / Section 2): given a
network decomposition of the power graph G^(2r+1) with c colors and
diameter d, any SLOCAL algorithm with locality r can be executed by a
LOCAL algorithm in O(c · (d + r)) rounds:

* clusters of one color are non-adjacent in G^(2r+1), i.e. at pairwise
  distance > 2r+1 in G — so the r-hop views of nodes in different
  same-color clusters cannot overlap, and the clusters can be processed
  *in parallel*;
* within a cluster, a leader gathers the cluster's topology plus the
  records written by previously processed colors (d + r rounds), runs
  the sequential algorithm on its nodes locally, and writes the records
  back.

With a poly(log n) decomposition this turns every poly(log n)-locality
SLOCAL algorithm — in particular the greedy MIS / coloring algorithms —
into a poly(log n)-round LOCAL algorithm, which is exactly how the
paper's derandomization statements cash out.

:func:`color_class_sweep` is that schedule, written once; the
via-decomposition solvers of :mod:`repro.core.mis` and
:mod:`repro.core.coloring` run it too, with the greedy rules below.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from ..sim.graph import DistributedGraph
from ..sim.metrics import AlgorithmResult, RunReport
from ..sim.slocal import LocalView, local_view
from ..structures import Decomposition


def greedy_mis_choice(outputs: Dict[int, Any],
                      neighbors: Iterable[int]) -> bool:
    """The greedy MIS rule: join unless a decided neighbor joined."""
    return not any(outputs.get(u) is True for u in neighbors)


def smallest_free_color(outputs: Dict[int, Any],
                        neighbors: Iterable[int]) -> int:
    """The greedy coloring rule: the smallest color no decided neighbor
    holds (at most deg(v) are taken, so it is at most deg(v))."""
    used = {outputs[u] for u in neighbors if u in outputs}
    color = 0
    while color in used:
        color += 1
    return color


def color_class_sweep(
    graph: DistributedGraph,
    decomposition: Decomposition,
    decide: Callable[[int, Dict[int, Any]], Any],
) -> Tuple[Dict[int, Any], int]:
    """Run ``decide(v, outputs) -> output`` over a decomposition's nodes.

    Color classes go in increasing color order, each cluster's members
    by UID; ``outputs`` holds every output written so far. Same-color
    clusters are non-adjacent in the graph the decomposition is of, so
    a rule that reads only what those clusters cannot share runs them
    in parallel (we iterate, but no information flows between them).

    Returns the outputs and the gather one color class pays: the largest
    cluster's weak diameter in ``graph``.
    """
    by_color: Dict[int, List[Set[int]]] = {}
    for cid, members in decomposition.clusters().items():
        by_color.setdefault(decomposition.color_of[cid], []).append(members)

    outputs: Dict[int, Any] = {}
    max_gather = 0
    for color in sorted(by_color):
        for members in by_color[color]:
            max_gather = max(max_gather, graph.weak_diameter(members))
            for v in sorted(members, key=graph.uid):
                outputs[v] = decide(v, outputs)
    return outputs, max_gather


def run_slocal_via_decomposition(
    graph: DistributedGraph,
    locality: int,
    decide: Callable[[LocalView], Any],
    decomposition_of_power: Optional[Decomposition] = None,
) -> AlgorithmResult:
    """Execute an SLOCAL algorithm through a decomposition of G^(2r+1).

    Parameters
    ----------
    locality:
        The SLOCAL locality r of ``decide``.
    decide:
        The per-vertex rule, as in :class:`~repro.sim.slocal.SLocalSimulator`.
    decomposition_of_power:
        A decomposition of ``graph.power_graph(2 * locality + 1)``
        (default: its deterministic ball carving — making the whole
        pipeline deterministic, the P-SLOCAL ⊆ "LOCAL + decomposition"
        direction).

    Returns the records for every vertex plus an accounted report:
    colors × (cluster diameter in G + 2r + 2) rounds.
    """
    if locality < 0:
        raise ConfigurationError("locality must be >= 0")
    power = graph.power_graph(2 * locality + 1)
    if decomposition_of_power is None:
        from .decomposition.deterministic import deterministic_decomposition

        decomposition_of_power, _ = deterministic_decomposition(power)
    problems = decomposition_of_power.violations(power)
    if problems:
        raise ConfigurationError(
            f"not a valid decomposition of G^(2r+1): {problems[:2]}"
        )

    # Same-color clusters are > 2r+1 apart in G: their members' r-hop
    # views are disjoint (asserted by the distance check in tests).
    def record(v: int, records: Dict[int, Any]) -> Any:
        out = decide(local_view(graph, v, locality, records))
        if out is None:
            raise ConfigurationError(f"decide returned None for vertex {v}")
        return out

    records, max_gather = color_class_sweep(graph, decomposition_of_power,
                                            record)
    colors = decomposition_of_power.num_colors()
    rounds = colors * (max_gather + 2 * locality + 2)
    report = RunReport(
        rounds=rounds,
        accounted=True,
        model="LOCAL",
        notes=[
            f"SLOCAL->LOCAL reduction: {colors} colors x (cluster gather "
            f"{max_gather} + 2r+2) rounds, r={locality}"
        ],
    )
    return AlgorithmResult(outputs=records, report=report)


def derandomized_mis(graph: DistributedGraph) -> Tuple[Dict[int, bool],
                                                       RunReport]:
    """Deterministic LOCAL MIS via the reduction (greedy SLOCAL, r=1)."""
    result = run_slocal_via_decomposition(
        graph, locality=1,
        decide=lambda view: greedy_mis_choice(view.outputs, view.neighbors()))
    return dict(result.outputs), result.report


def derandomized_coloring(graph: DistributedGraph) -> Tuple[Dict[int, int],
                                                            RunReport]:
    """Deterministic LOCAL (Δ+1)-coloring via the reduction (r=1)."""
    result = run_slocal_via_decomposition(
        graph, locality=1,
        decide=lambda view: smallest_free_color(view.outputs,
                                                view.neighbors()))
    return dict(result.outputs), result.report
