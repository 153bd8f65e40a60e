"""Local checker for (Δ+1) vertex coloring — an LCL, radius 1.

Node v verifies that its color differs from every neighbor's and lies in
{0, ..., Δ}. The degree bound uses the *claimed* palette size passed at
construction (usually Δ+1), since Δ itself is a global quantity node v
only bounds by its own degree.
"""

from __future__ import annotations

from typing import Optional

from .base import LocalChecker, LocalView


class ColoringChecker(LocalChecker):
    """Radius-1 checker for proper coloring with an optional palette cap."""

    def __init__(self, palette_size: Optional[int] = None):
        self.palette_size = palette_size

    def radius(self, n: int) -> int:
        return 1

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        color = view.outputs[v]
        if not isinstance(color, int) or color < 0:
            return False
        if self.palette_size is not None and color >= self.palette_size:
            return False
        for u, d in view.nodes.items():
            if d == 1 and view.outputs.get(u) == color:
                return False
        return True
