"""The per-node round engine for the LOCAL and CONGEST models.

Section 2 of the paper: communication happens in synchronous rounds; per
round each node can send one message to each neighbor. In LOCAL message
sizes are unbounded; in CONGEST each message carries O(log n) bits. The
engine executes a :class:`~repro.sim.node.NodeProgram` at every node,
delivers messages with one-round latency, enforces the bandwidth limit
in CONGEST mode, and measures rounds/messages/bits. ``n_override``
implements the "lie about n" technique of Theorems 4.3/4.6 (nodes are
told the network has ``N >= n`` nodes), and ``uniform`` denies nodes
access to n.

It runs the node programs that have no whole-round array form yet —
E9's trial colouring, Linial's colour reduction and E10's sinkless
fix-up; data-parallel programs, and every run under a fault plan, go to
:class:`~repro.sim.batch.array.ArrayEngine`. The tests hold it to a
plain dict-per-round reference engine (in ``tests/helpers.py``) on
every program, family and model. Its hot path:

* topology is the graph's frozen :class:`~repro.sim.batch.csr.CSRGraph`
  (cached neighbor lists + frozensets), so no send re-materializes a
  neighbor set;
* pure broadcasts — the dominant outbox shape — skip per-target dict
  construction and per-target bandwidth checks: the payload is sized
  once and fanned out along the CSR neighbor list;
* only nodes that actually received messages get a fresh inbox dict,
  and only still-running nodes are stepped (an active list, not an
  all-nodes scan).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ...errors import BandwidthExceeded, ConfigurationError, ModelViolation
from ...randomness.source import RandomSource
from ..graph import DistributedGraph
from ..messages import CONGEST, LOCAL, congest_limit, message_bits
from ..metrics import AlgorithmResult, RunReport
from ..node import NodeContext, NodeProgram
from .csr import CSRGraph, ensure_csr

#: sentinel marking a resolved pure-broadcast outbox.
_BCAST = object()


class FastEngine:
    """Executes one node program per node, in lock-step rounds, fast.

    Parameters: the ``graph``; a ``program_factory`` called once per
    node index; an optional randomness ``source``; ``model`` (``LOCAL``
    or ``CONGEST``); ``n_override`` (claimed n, at least the real one);
    ``bandwidth_bits`` (CONGEST limit, default
    :func:`~repro.sim.messages.congest_limit` of the claimed n);
    ``max_rounds`` (raise past it); ``uniform`` (deny access to n); and
    an optional pre-built ``csr`` (reuse it across many runs on the same
    topology — e.g. a seed sweep — to skip reconstruction).
    """

    def __init__(self, graph: DistributedGraph,
                 program_factory: Callable[[int], NodeProgram],
                 source: Optional[RandomSource] = None,
                 model: str = LOCAL,
                 n_override: Optional[int] = None,
                 bandwidth_bits: Optional[int] = None,
                 max_rounds: int = 100_000,
                 uniform: bool = False,
                 csr: Optional[CSRGraph] = None):
        if model not in (LOCAL, CONGEST):
            raise ConfigurationError(f"unknown model {model!r}")
        csr = ensure_csr(graph, csr)
        if n_override is not None and n_override < csr.n:
            raise ConfigurationError(
                f"n_override ({n_override}) must be >= actual n ({csr.n}); "
                f"lying about n only inflates the network (Thm 4.3)"
            )
        self.graph = graph
        self.csr = csr
        self.model = model
        self.source = source
        self.claimed_n = n_override if n_override is not None else csr.n
        if bandwidth_bits is not None:
            self.bandwidth = bandwidth_bits
        else:
            self.bandwidth = congest_limit(self.claimed_n)
        self.max_rounds = max_rounds
        nbr_lists = csr.neighbor_lists
        self._programs = [program_factory(v) for v in range(csr.n)]
        self._contexts = [
            NodeContext(v, csr.uids[v], nbr_lists[v],
                        self.claimed_n, source, uniform=uniform)
            for v in range(csr.n)
        ]

    # ------------------------------------------------------------------
    # Outbox resolution
    # ------------------------------------------------------------------
    def _resolve(self, v: int, outbox: Dict[Any, Any]) -> Optional[Tuple]:
        """Validate an outbox; return a compact send record or None.

        The record is ``(_BCAST, payload, bits)`` for a pure broadcast or
        ``(resolved_dict, sizes_dict, None)`` otherwise; message sizes
        are measured here, once per distinct payload *object* in the
        outbox (programs typically fan one tuple out to many targets),
        so delivery never re-measures. The memo is keyed by ``id`` and
        lives only for this call, while the outbox still references
        every payload — no aliasing of equal-but-differently-sized
        values (e.g. ``True`` vs ``1``) is possible.

        Mixed outboxes (a BROADCAST key plus explicit targets) resolve
        with the explicit payload winning for its target regardless of
        dict insertion order: the broadcast fans out first, then the
        explicit entries overwrite.
        """
        if not outbox:
            return None
        congest = self.model == CONGEST
        if len(outbox) == 1 and NodeProgram.BROADCAST in outbox:
            payload = outbox[NodeProgram.BROADCAST]
            bits = message_bits(payload)
            if congest and bits > self.bandwidth:
                # An empty neighborhood sends nothing, so an oversized
                # broadcast there never trips the check.
                if self.csr.degrees[v]:
                    raise BandwidthExceeded(
                        f"node {v} -> {self.csr.neighbor_lists[v][0]}: "
                        f"message of {bits} bits exceeds CONGEST limit of "
                        f"{self.bandwidth} bits"
                    )
                return None
            if not self.csr.degrees[v]:
                return None
            return (_BCAST, payload, bits)
        neighbors = self.csr.neighbor_sets[v]
        explicit: Dict[int, Any] = {}
        broadcast_payload: Any = None
        has_broadcast = False
        for target, payload in outbox.items():
            if target == NodeProgram.BROADCAST:
                broadcast_payload = payload
                has_broadcast = True
                continue
            if target not in neighbors:
                raise ModelViolation(
                    f"node {v} tried to send to non-neighbor {target!r}"
                )
            explicit[target] = payload
        resolved: Dict[int, Any] = {}
        if has_broadcast:
            for u in neighbors:
                resolved[u] = broadcast_payload
        resolved.update(explicit)
        if not resolved:
            return None
        sizes: Dict[int, int] = {}
        seen: Dict[int, int] = {}
        for target, payload in resolved.items():
            size = seen.get(id(payload))
            if size is None:
                size = message_bits(payload)
                seen[id(payload)] = size
            if congest and size > self.bandwidth:
                raise BandwidthExceeded(
                    f"node {v} -> {target}: message of {size} bits exceeds "
                    f"CONGEST limit of {self.bandwidth} bits"
                )
            sizes[target] = size
        return (resolved, sizes, None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> AlgorithmResult:
        """Execute until every node finished; return outputs and report."""
        report = RunReport(model=self.model)
        before_bits = self.source.bits_consumed if self.source else 0

        n = self.csr.n
        programs = self._programs
        contexts = self._contexts
        nbr_lists = self.csr.neighbor_lists
        resolve = self._resolve
        empty: Dict[int, Any] = {}

        # Round 0: init.
        outgoing: List[Tuple[int, Tuple]] = []
        for v in range(n):
            outbox = programs[v].init(contexts[v]) or empty
            record = resolve(v, outbox)
            if record is not None:
                outgoing.append((v, record))
        active = [v for v in range(n) if not contexts[v].finished]

        messages = 0
        total_bits = 0
        max_bits = 0
        round_index = 0
        while active:
            round_index += 1
            if round_index > self.max_rounds:
                raise ModelViolation(
                    f"algorithm exceeded max_rounds={self.max_rounds}"
                )
            # Deliver round (round_index)'s messages. Senders were queued
            # in ascending node order, so each inbox sees senders in the
            # same insertion order the reference engine produces.
            received: Dict[int, Dict[int, Any]] = {}
            for sender, (head, payload, bits) in outgoing:
                if head is _BCAST:
                    targets = nbr_lists[sender]
                    for target in targets:
                        inbox = received.get(target)
                        if inbox is None:
                            inbox = received[target] = {}
                        inbox[sender] = payload
                    fanout = len(targets)
                    messages += fanout
                    total_bits += bits * fanout
                    if bits > max_bits:
                        max_bits = bits
                else:
                    sizes = payload  # target -> bits, measured at resolve
                    for target, item in head.items():
                        messages += 1
                        size = sizes[target]
                        total_bits += size
                        if size > max_bits:
                            max_bits = size
                        inbox = received.get(target)
                        if inbox is None:
                            inbox = received[target] = {}
                        inbox[sender] = item
            # Step every live node.
            outgoing = []
            still_active: List[int] = []
            for v in active:
                ctx = contexts[v]
                inbox = received.get(v)
                if inbox is None:
                    inbox = {}
                outbox = programs[v].step(ctx, round_index, inbox) or empty
                record = resolve(v, outbox)
                if record is not None:
                    outgoing.append((v, record))
                if not ctx.finished:
                    still_active.append(v)
            active = still_active

        report.rounds = round_index
        report.messages = messages
        report.total_bits = total_bits
        report.max_message_bits = max_bits
        if self.source is not None:
            report.randomness_bits = self.source.bits_consumed - before_bits
        outputs = {v: contexts[v].output for v in range(n)}
        return AlgorithmResult(outputs=outputs, report=report)
