"""Local checkability (Definition 2.2 of the paper).

A problem is d(n)-locally checkable if a deterministic d(n)-round LOCAL
algorithm can verify a claimed solution: every node outputs yes/no, and
all nodes say yes iff the solution is correct.

:class:`LocalChecker` realizes a checker as a *radius-limited view
predicate*: node v's verdict may depend only on the topology, UIDs, and
claimed outputs within distance ``radius(n)`` of v. The framework hands
each node exactly that view, so a checker physically cannot exceed its
declared radius — which is the property the paper's reductions rely on
(e.g. the "lie about n" argument needs checkers that cannot see the
whole graph, Theorem 4.3). The view is :class:`~repro.sim.slocal.LocalView`,
built by :func:`~repro.sim.slocal.local_view` — the same view an SLOCAL
algorithm reads.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Dict, List

from ..sim.graph import DistributedGraph
from ..sim.slocal import LocalView, local_view


@dataclasses.dataclass
class CheckVerdict:
    """Outcome of running a local checker on a claimed solution."""

    ok: bool
    rejecting_nodes: List[int]
    radius: int

    def __bool__(self) -> bool:
        return self.ok


class LocalChecker(abc.ABC):
    """A d(n)-locally checkable verifier."""

    @abc.abstractmethod
    def radius(self, n: int) -> int:
        """Checking radius d(n)."""

    @abc.abstractmethod
    def node_ok(self, view: LocalView) -> bool:
        """Node-level verdict from a radius-limited view."""

    def check(self, graph: DistributedGraph,
              outputs: Dict[int, Any]) -> CheckVerdict:
        """Run the checker at every node; all-yes iff valid."""
        r = self.radius(graph.n)
        rejecting: List[int] = []
        for v in graph.nodes():
            if not self.node_ok(local_view(graph, v, r, outputs)):
                rejecting.append(v)
        return CheckVerdict(ok=not rejecting, rejecting_nodes=rejecting, radius=r)
