"""Per-node programs and their execution context.

An algorithm in the LOCAL/CONGEST models is a program run by every node.
Here a program is a subclass of :class:`NodeProgram` whose :meth:`step`
is called once per synchronous round with the messages received from the
previous round; it returns the messages to send this round, and calls
:meth:`NodeContext.finish` to terminate with a local output.

What a node may see is exactly what the model grants it: its UID, its
degree, opaque handles for its neighbors, the (claimed) network size
``n`` for non-uniform algorithms, and its randomness stream. Topology
beyond that must be learned through messages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ModelViolation
from ..randomness.source import RandomSource


class NodeContext:
    """Everything a node is allowed to know and do locally.

    The randomness API is cursor-based: each call consumes fresh bits
    from the node's private stream, so programs never have to track bit
    offsets (and can never accidentally reuse bits, which would break the
    limited-independence analyses).
    """

    def __init__(self, v: int, uid: int, neighbors: List[int], n: int,
                 source: Optional[RandomSource], uniform: bool = False):
        self.v = v
        self.uid = uid
        self.neighbors = list(neighbors)
        self.degree = len(neighbors)
        self._n = n
        self._uniform = uniform
        self._source = source
        self._cursor = 0
        self.state: Dict[str, Any] = {}
        self.finished = False
        self.output: Any = None

    # ------------------------------------------------------------------
    # Knowledge of n (non-uniform vs uniform algorithms, Section 2)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """The network size given as input (possibly an upper bound).

        Uniform algorithms (constructed with ``uniform=True``) are denied
        access — reading ``n`` raises, enforcing Definition 2.1's split.
        """
        if self._uniform:
            raise ModelViolation("uniform algorithm may not read n")
        return self._n

    # ------------------------------------------------------------------
    # Randomness (cursor-based, metered by the source)
    # ------------------------------------------------------------------
    def _require_source(self) -> RandomSource:
        if self._source is None:
            raise ModelViolation(
                f"node {self.v} requested randomness but the run is deterministic"
            )
        return self._source

    def rand_bit(self) -> int:
        """One fresh private random bit."""
        bit = self._require_source().bit(self.v, self._cursor)
        self._cursor += 1
        return bit

    def rand_bits(self, count: int) -> List[int]:
        """``count`` fresh private random bits (one bulk stream read)."""
        bits = self._require_source().bits(self.v, count, self._cursor)
        self._cursor += count
        return bits

    def rand_uniform(self, bound: int) -> int:
        """Fresh uniform integer in ``[0, bound)``."""
        value, used = self._require_source().uniform_int(
            self.v, bound, self._cursor)
        self._cursor += used
        return value

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def finish(self, output: Any) -> None:
        """Terminate this node with its local output."""
        self.finished = True
        self.output = output


class NodeProgram:
    """Base class for per-node message-passing programs.

    Subclasses override :meth:`init` (round 0 setup, returns the first
    outbox) and :meth:`step` (called each subsequent round). Outboxes map
    neighbor handle -> payload; the special key :data:`BROADCAST` sends
    the same payload to every neighbor.

    A node keeps receiving messages after calling ``finish`` (neighbors
    may still be running) but its program is no longer stepped.
    """

    BROADCAST = "__broadcast__"

    def init(self, ctx: NodeContext) -> Dict[Any, Any]:
        """Round-0 setup; returns the outbox for round 1."""
        return {}

    def step(self, ctx: NodeContext, round_index: int,
             inbox: Dict[int, Any]) -> Dict[Any, Any]:
        """One round: consume the inbox, return the outbox."""
        raise NotImplementedError
