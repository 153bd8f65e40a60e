"""Local checker for maximal independent sets.

MIS is an LCL problem, hence strictly O(1)-locally checkable: with
radius 1, node v verifies independence (v and a neighbor are not both in
the set) and maximality (if v is out, some neighbor is in).
Outputs: ``True`` for "in the MIS", ``False`` for "out".
"""

from __future__ import annotations

from .base import LocalChecker, LocalView


class MISChecker(LocalChecker):
    """Radius-1 checker for MIS (outputs are booleans)."""

    def radius(self, n: int) -> int:
        return 1

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        in_set = bool(view.outputs[v])
        neighbor_flags = [
            bool(view.outputs.get(u, False))
            for u, d in view.nodes.items() if d == 1
        ]
        if in_set:
            return not any(neighbor_flags)
        # Out of the set: some neighbor must be in (maximality). An
        # isolated node must be in the set.
        return any(neighbor_flags)
