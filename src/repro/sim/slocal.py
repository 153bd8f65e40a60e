"""The local view, and the SLOCAL model of Ghaffari, Kuhn, and Maus [GKM17].

:func:`local_view` builds the one :class:`LocalView` (a node's radius-r
ball: topology, UIDs and the outputs written so far) that the local
checkers, the SLOCAL simulator and the SLOCAL→LOCAL reduction hand
their rules.

A sequential-local algorithm processes the vertices in an arbitrary order
``v1, v2, ..., vn``. When vertex ``vi`` is processed, the algorithm reads
the current information within an ``r``-hop neighborhood of ``vi`` —
topology, UIDs, and everything previously *recorded* at those nodes —
then writes ``vi``'s output (and optionally extra state) into ``vi``.
The parameter ``r`` is the algorithm's *locality*.

The paper leans on two facts about this model (Section 1.1): greedy
problems like MIS and (Δ+1)-coloring have locality-1 SLOCAL algorithms,
and P-SLOCAL = P-RLOCAL [GHK18], which is why derandomizing LOCAL
algorithms goes through SLOCAL constructions.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ModelViolation
from .graph import DistributedGraph
from .metrics import AlgorithmResult, RunReport


@dataclasses.dataclass
class LocalView:
    """What one node sees: its radius-``r`` ball of the graph.

    Attributes
    ----------
    center:
        The node whose view this is.
    nodes:
        All nodes within the radius, with their distances (by index).
    edges:
        Edges among visible nodes, in ``graph.edges()`` order.
    uids:
        UIDs of visible nodes.
    outputs:
        The outputs written so far, restricted to visible nodes (missing
        = not yet written). Mutating this dict has no effect on a run.
    """

    center: int
    nodes: Dict[int, int]
    edges: List[Tuple[int, int]]
    uids: Dict[int, int]
    outputs: Dict[int, Any]

    def neighbors(self) -> List[int]:
        """The center's neighbors: the visible nodes at distance 1."""
        return [u for u, d in self.nodes.items() if d == 1]


def local_view(graph: DistributedGraph, v: int, radius: int,
               outputs: Dict[int, Any]) -> LocalView:
    """The radius-``radius`` view of ``v``, seeing ``outputs``."""
    ball = graph.ball(v, radius)
    # The ball's edges from its own arcs, in graph.edges() order:
    # O(ball), not O(m).
    edges = sorted(((u, w) for u in ball for w in graph.neighbors(u)
                    if u < w and w in ball),
                   key=graph.edge_position().__getitem__)
    return LocalView(
        center=v,
        nodes=dict(ball),
        edges=edges,
        uids={u: graph.uid(u) for u in ball},
        outputs={u: outputs[u] for u in ball if u in outputs},
    )


class SLocalSimulator:
    """Runs an SLOCAL algorithm of a fixed locality over a graph.

    The decide function receives a :class:`LocalView` (``outputs``: the
    records of already processed vertices) and returns the record to
    store at the processed vertex (its output). Reads outside the radius
    are impossible by construction — the view simply does not contain
    them — which enforces the model.

    Parameters
    ----------
    graph:
        The network.
    locality:
        The radius ``r`` the algorithm may read.
    decide:
        ``decide(view) -> record`` for each processed vertex.
    """

    def __init__(self, graph: DistributedGraph, locality: int,
                 decide: Callable[[LocalView], Any]):
        if locality < 0:
            raise ConfigurationError(f"locality must be >= 0, got {locality}")
        self.graph = graph
        self.locality = locality
        self.decide = decide

    def run(self, order: Optional[Sequence[int]] = None) -> AlgorithmResult:
        """Process all vertices in the given (or index) order."""
        if order is None:
            order = list(self.graph.nodes())
        if sorted(order) != list(self.graph.nodes()):
            raise ConfigurationError("order must be a permutation of the nodes")
        records: Dict[int, Any] = {}
        for v in order:
            record = self.decide(local_view(self.graph, v, self.locality,
                                            records))
            if record is None:
                raise ModelViolation(
                    f"SLOCAL decide returned None for vertex {v}; every "
                    f"processed vertex must record an output"
                )
            records[v] = record
        report = RunReport(
            rounds=len(order),
            accounted=True,
            model="SLOCAL",
            notes=[f"SLOCAL locality={self.locality}; rounds = vertices processed"],
        )
        return AlgorithmResult(outputs=records, report=report)
