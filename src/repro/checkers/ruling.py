"""Local checker for (α, β)-ruling sets [AGLP89].

Outputs: ``True`` if the node is in S, ``False`` otherwise; nodes
outside the relevant subset U output ``None``. Node v verifies:

* if v in S: no other S-node within distance α-1 (radius α-1 suffices);
* if v in U \\ S: some S-node within distance β.

Checking radius is max(α-1, β) — a d(n)-local check in the paper's
relaxed sense when α, β are polylogarithmic.
"""

from __future__ import annotations

from .base import LocalChecker, LocalView


class RulingSetChecker(LocalChecker):
    """Checker for S being an (alpha, beta)-ruling set w.r.t. U.

    Membership in U is encoded in the outputs: ``None`` = not in U,
    ``False`` = in U but not S, ``True`` = in S (S ⊆ U).
    """

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta

    def radius(self, n: int) -> int:
        return max(self.alpha - 1, self.beta)

    def node_ok(self, view: LocalView) -> bool:
        v = view.center
        if v not in view.outputs:
            return False
        status = view.outputs[v]
        if status is None:
            return True  # not in U: nothing to verify at v
        if status is True:
            # Independence: no other selected node strictly closer than alpha.
            for u, d in view.nodes.items():
                if u != v and d <= self.alpha - 1 and view.outputs.get(u) is True:
                    return False
            return True
        # In U but unselected: domination within beta.
        return any(
            view.outputs.get(u) is True
            for u, d in view.nodes.items() if d <= self.beta
        )
