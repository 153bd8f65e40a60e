"""Local checker for sinkless orientation (Section 1.1 landscape).

Every edge is oriented; every node of degree >= 3 must have at least one
outgoing edge. Outputs: node v outputs the set (frozenset/tuple) of
neighbors its incident edges point *to*. The radius-1 check verifies
consistency (each edge claimed out by exactly one endpoint) and
sinklessness.
"""

from __future__ import annotations

from .base import LocalChecker, LocalView


class SinklessOrientationChecker(LocalChecker):
    """Radius-1 checker for sinkless orientations."""

    def __init__(self, min_degree: int = 3):
        self.min_degree = min_degree

    def radius(self, n: int) -> int:
        return 1

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        out_v = view.outputs[v]
        try:
            out_set = set(out_v)
        except TypeError:
            return False
        neighbors = {u for u, d in view.nodes.items() if d == 1}
        if not out_set <= neighbors:
            return False
        # Edge consistency: for each neighbor u, exactly one of (v->u),
        # (u->v) holds.
        for u in neighbors:
            u_out = view.outputs.get(u)
            if u_out is None:
                return False
            claims_out = u in out_set
            claims_in = v in set(u_out)
            if claims_out == claims_in:
                return False
        if len(neighbors) >= self.min_degree and not out_set:
            return False
        return True
