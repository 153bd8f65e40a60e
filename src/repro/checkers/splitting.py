"""Local checker for the splitting problem (Lemma 3.4, [GKM17]).

The instance is bipartite H = (U, V, E); the solution colors V red/blue
so every U-node sees both colors. With radius 1 in H, each U-node checks
its own neighborhood; V-nodes only check that they output a color.
Outputs: V-nodes output 0 (red) or 1 (blue); U-nodes output ``"u"``.
"""

from __future__ import annotations

from .base import LocalChecker, LocalView


class SplittingChecker(LocalChecker):
    """Radius-1 checker on the bipartite instance graph."""

    def radius(self, n: int) -> int:
        return 1

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        out = view.outputs[v]
        if out == "u":
            seen = {
                view.outputs.get(u)
                for u, d in view.nodes.items()
                if d == 1 and view.outputs.get(u) in (0, 1)
            }
            return seen == {0, 1}
        return out in (0, 1)
