"""Randomness sources as a first-class, metered resource.

Section 3 of the paper views randomness as a scarce resource and asks how
much of it is needed. To make that question executable, every algorithm in
this library draws its random bits through a :class:`RandomSource`. A
source is a deterministic function of its seed: requesting the same
``(node, index)`` twice returns the same bit. This mirrors the standard
w.l.o.g. assumption (proof of Lemma 4.1) that each node first fixes its
random string and then runs deterministically — and it is what makes seed
enumeration (Lemma 4.1) and lie-about-n (Theorem 4.3) implementable.

The ledger records how many *distinct* bits each node touched, so
experiments can report exact randomness budgets. Accounting is
interval-based (per-node sorted ranges of consumed indices, see
:class:`~repro.randomness.block.IntervalSet`), so a contiguous read of
any length costs O(1) amortized ledger work instead of one dict entry
per bit; the reported counts are identical to per-bit bookkeeping.

Subclasses implement :meth:`_raw_bit` (one bit) and, for speed, override
:meth:`_raw_block` (a contiguous run of one node's bits as a numpy array)
and :meth:`_raw_blocks` (the same run for many nodes at once, as the
rows of one matrix); PRF-backed sources also expose their raw 512-bit
blocks through ``_digest_blocks``. The public bulk readers
(:meth:`bits_block`, :meth:`uniform_int_each`, :meth:`geometrics`,
:meth:`bits_each`) let hot algorithms draw a whole
round's randomness in one call while consuming *exactly* the bits the
per-call samplers would; :meth:`uniform_int_each`, :meth:`geometrics`
and :meth:`bits_each` draw every node's value in one vectorized pass
over a matrix of those bits, and only the ledger update stays per node.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, RandomnessExhausted
from .block import BLOCK_BITS, IntervalSet


def pack_bits(bits) -> int:
    """Big-endian fold of a 0/1 sequence into an integer."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


class RandomSource(abc.ABC):
    """Abstract source of per-node random bits.

    Subclasses implement :meth:`_raw_bit`; the public API adds metering,
    budget enforcement, and derived samplers (uniform integers, geometric
    variables) built only from bits, so the bit count is the single
    currency of randomness.
    """

    #: total independent seed bits behind this source (None = unbounded).
    seed_bits: Optional[int] = None

    #: Optional hook ``(nodes, block_indices) -> uint8[k, 64]``: the raw
    #: 512-bit PRF block ``block_indices[i]`` of ``nodes[i]``'s unbounded
    #: stream. Sources that provide it get :meth:`uniform_int_each`'s
    #: one-pass path.
    _digest_blocks: Optional[Callable[..., np.ndarray]] = None

    def __init__(self, bit_budget: Optional[int] = None):
        self._bit_budget = bit_budget
        self._ledgers: Dict[object, IntervalSet] = {}
        self._total_consumed = 0

    # ------------------------------------------------------------------
    # Raw generation (subclass contract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _raw_bit(self, node: object, index: int) -> int:
        """Return bit ``index`` of ``node``'s random string (0 or 1)."""

    def _raw_block(self, node: object, start: int, count: int) -> np.ndarray:
        """``count`` consecutive raw bits from ``start`` as a uint8 array.

        Unmetered. The default loops :meth:`_raw_bit`; sources with a
        vectorizable derivation override this, and every single-node bulk
        reader (:meth:`bits_block`, :meth:`geometric`) generates through
        it.
        """
        out = np.empty(count, dtype=np.uint8)
        for i in range(count):
            value = self._raw_bit(node, start + i)
            if value not in (0, 1):
                raise ConfigurationError(
                    f"_raw_bit returned non-bit value {value!r}")
            out[i] = value
        return out

    def _raw_blocks(self, nodes: Sequence[object], start: int,
                    count: int) -> np.ndarray:
        """Bits ``[start, start + count)`` of every node's stream, as the
        rows of a ``uint8[len(nodes), count]`` matrix.

        Unmetered. The default stacks :meth:`_raw_block` one node at a
        time, so every source supports it; sources whose derivation
        vectorizes across nodes override it. The hook behind
        :meth:`geometrics`.
        """
        out = np.empty((len(nodes), count), dtype=np.uint8)
        for i, node in enumerate(nodes):
            out[i] = self._raw_block(node, start, count)
        return out

    def _stream_limit(self, node: object) -> Optional[int]:
        """Exclusive upper bound on valid bit indices for ``node``.

        ``None`` means unbounded. Bounded sources report their per-node
        string length so the bulk samplers never *peek* past the end of
        a stream whose prefix would have satisfied the request.
        """
        return None

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    def _consume(self, node: object, start: int, end: int) -> None:
        """Meter ``[start, end)`` of ``node``'s stream.

        Already-served sub-ranges are free re-reads. Enforces the bit
        budget with per-bit-exact semantics: the served prefix is
        recorded, and the exception names the first index that did not
        fit — matching what bit-at-a-time accounting would have done.
        """
        if start >= end:
            return
        ledger = self._ledgers.get(node)
        if ledger is None:
            gaps = [(start, end)]
        else:
            gaps = ledger.missing(start, end)
        if not gaps:
            return

        def record(s: int, e: int) -> None:
            nonlocal ledger
            if ledger is None:
                ledger = self._ledgers[node] = IntervalSet()
            self._total_consumed += ledger.add(s, e)

        budget = self._bit_budget
        if budget is not None:
            new = sum(e - s for s, e in gaps)
            if self._total_consumed + new > budget:
                room = budget - self._total_consumed
                for s, e in gaps:
                    take = min(room, e - s)
                    if take:
                        record(s, s + take)
                        room -= take
                    if take < e - s:
                        raise RandomnessExhausted(
                            f"bit budget of {budget} bits exhausted "
                            f"(node {node!r} requested index {s + take})")
        for s, e in gaps:
            record(s, e)

    # ------------------------------------------------------------------
    # Core bit access
    # ------------------------------------------------------------------
    def bit(self, node: object, index: int) -> int:
        """Metered access to bit ``index`` of ``node``'s random string."""
        ledger = self._ledgers.get(node)
        if self._bit_budget is not None \
                and self._total_consumed >= self._bit_budget \
                and (ledger is None or not ledger.covers(index)):
            raise RandomnessExhausted(
                f"bit budget of {self._bit_budget} bits exhausted "
                f"(node {node!r} requested index {index})"
            )
        value = self._raw_bit(node, index)
        if value not in (0, 1):
            raise ConfigurationError(f"_raw_bit returned non-bit value {value!r}")
        if ledger is None:
            ledger = self._ledgers[node] = IntervalSet()
        self._total_consumed += ledger.add(index, index + 1)
        return value

    def bits(self, node: object, count: int, offset: int = 0) -> List[int]:
        """Return ``count`` consecutive bits starting at ``offset``."""
        return self.bits_block(node, count, offset).tolist()

    def bits_block(self, node: object, count: int,
                   offset: int = 0) -> np.ndarray:
        """Metered bulk read: ``count`` bits from ``offset`` as uint8.

        One ledger operation and one block-wise generation regardless of
        ``count``; consumption is identical to ``count`` calls of
        :meth:`bit` — including on the error path: a read that runs past
        a bounded stream's end meters the valid prefix before raising,
        exactly as the per-bit walk would.
        """
        if count <= 0:
            return np.empty(0, dtype=np.uint8)
        limit = self._stream_limit(node)
        if limit is not None and (offset < 0 or offset + count > limit):
            # Out-of-range request on a bounded stream: walk bit-by-bit
            # so the served prefix is recorded and the source's own
            # range error surfaces at the first invalid index.
            out = np.empty(count, dtype=np.uint8)
            for i in range(count):
                out[i] = self.bit(node, offset + i)
            return out
        values = self._raw_block(node, offset, count)
        self._consume(node, offset, offset + count)
        return values

    # ------------------------------------------------------------------
    # Derived samplers
    # ------------------------------------------------------------------
    def uniform_int(self, node: object, bound: int, offset: int = 0) -> Tuple[int, int]:
        """Sample an integer in ``[0, bound)`` from the node's bit stream.

        Uses rejection sampling over ``ceil(log2 bound)`` bits per attempt,
        which preserves exact uniformity (important for the limited-
        independence analyses). Returns ``(value, bits_used)`` so callers
        can advance their stream offset. Each attempt is one bulk block
        read, not ``width`` per-bit calls.
        """
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0, 0
        width = (bound - 1).bit_length()
        used = 0
        # Cap rejection attempts; the failure probability per attempt is
        # < 1/2, so 64 attempts fail with probability < 2^-64.
        for _ in range(64):
            chunk = self.bits_block(node, width, offset + used)
            used += width
            value = pack_bits(chunk)
            if value < bound:
                return value, used
        raise RandomnessExhausted(
            f"rejection sampling for bound {bound} did not converge"
        )

    def uniform_int_each(self, nodes: Sequence[object], bound: int,
                         offsets: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """One uniform draw in ``[0, bound)`` per node, each from its own
        stream.

        The bulk form of :meth:`uniform_int` for round-structured
        algorithms (e.g. Luby priorities: every undecided node draws one
        value per iteration from its own stream at its own cursor).
        ``offsets[i]`` is node ``i``'s stream cursor. Returns
        ``(values, bits_used)`` arrays aligned with ``nodes``; values,
        metering and errors match per-node :meth:`uniform_int` calls
        exactly.

        On a source with a ``_digest_blocks`` hook, no bit budget and a
        bound of at most ``2**62``, all draws are one numpy pass over a
        matrix of each node's PRF block under its cursor; only rejected
        lanes retry. Each node still needs its own PRF block reads and
        ledger entry, so the per-node work is O(1) block operations: one
        block lookup and one ``IntervalSet.add``, in node order. A lane
        whose window would cross its block's end, that is still rejected
        after 64 attempts, or whose cursor is negative falls back to
        :meth:`uniform_int` at its place in that order, as does every
        lane on other sources.
        """
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        count = len(nodes)
        values = np.zeros(count, dtype=np.int64)
        used = np.zeros(count, dtype=np.int64)
        if bound == 1:
            return values, used
        width = (bound - 1).bit_length()
        if self._digest_blocks is None or self._bit_budget is not None \
                or width > 62:
            for i, node in enumerate(nodes):
                values[i], used[i] = self.uniform_int(
                    node, bound, int(offsets[i]))
            return values, used

        starts = np.asarray(offsets, dtype=np.int64).reshape(count)
        fallback = starts < 0  # lanes drawn by uniform_int instead
        lanes = np.flatnonzero(~fallback)
        blocks = self._digest_blocks([nodes[i] for i in lanes.tolist()],
                                     starts[lanes] // BLOCK_BITS)
        # Window bits gathered per lane: enough bytes for any bit phase.
        span = (7 + width + 7) // 8
        byte_steps = np.arange(span)
        bit_steps = np.arange(width)
        weights = np.left_shift(1, np.arange(width - 1, -1, -1),
                                dtype=np.int64)
        rows = np.arange(lanes.size)
        cursor = starts[lanes] % BLOCK_BITS  # bit position in the block
        for _ in range(64):
            fits = cursor[rows] + width <= BLOCK_BITS
            fallback[lanes[rows[~fits]]] = True
            rows = rows[fits]
            if not rows.size:
                break
            at = cursor[rows]
            byte_idx = np.minimum((at >> 3)[:, None] + byte_steps, 63)
            bits = np.unpackbits(blocks[rows[:, None], byte_idx], axis=1,
                                 bitorder="little")
            window = bits[np.arange(rows.size)[:, None],
                          (at & 7)[:, None] + bit_steps]
            drawn = window @ weights
            cursor[rows] += width
            accepted = drawn < bound
            values[lanes[rows[accepted]]] = drawn[accepted]
            rows = rows[~accepted]
        fallback[lanes[rows]] = True
        used[lanes] = cursor - starts[lanes] % BLOCK_BITS

        ledgers = self._ledgers
        for i, (node, start, step, slow) in enumerate(zip(
                nodes, starts.tolist(), used.tolist(), fallback.tolist())):
            if slow:
                values[i], used[i] = self.uniform_int(node, bound, start)
                continue
            ledger = ledgers.get(node)
            if ledger is None:
                ledger = ledgers[node] = IntervalSet()
            self._total_consumed += ledger.add(start, start + step)
        return values, used

    def bernoulli(self, node: object, numer: int, denom: int,
                  offset: int = 0) -> Tuple[int, int]:
        """Sample a Bernoulli(numer/denom) variable from the bit stream.

        Returns ``(outcome, bits_used)``. Exact: draws a uniform value in
        ``[0, denom)`` and compares against ``numer``.
        """
        if not 0 <= numer <= denom:
            raise ConfigurationError(f"invalid probability {numer}/{denom}")
        value, used = self.uniform_int(node, denom, offset)
        return (1 if value < numer else 0), used

    def geometric(self, node: object, cap: int, offset: int = 0) -> Tuple[int, int]:
        """Sample a Geometric(1/2) variable: Pr[X = k] = 2^-k for k >= 1.

        This is the discrete analog of the exponential shifts in the
        Elkin–Neiman construction (footnote 8 of the paper): flip fair
        coins until the first tail; the value is the index of that flip.
        The value is capped at ``cap`` (the paper caps at Theta(log n),
        which holds w.h.p. anyway). Returns ``(value, bits_used)``.

        Only the bits actually examined (up to and including the first
        tail) are consumed, exactly as with bit-at-a-time flipping.
        """
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")
        limit = self._stream_limit(node)
        if limit is not None and offset + cap > limit:
            # Short stream: flip bit-by-bit so a run that ends before the
            # stream does still succeeds (and exhaustion raises exactly
            # where the per-bit walk would have hit the end).
            used = 0
            for k in range(1, cap + 1):
                flip = self.bit(node, offset + used)
                used += 1
                if flip == 0:
                    return k, used
            return cap, used
        raw = self._raw_block(node, offset, cap)
        zeros = np.flatnonzero(raw == 0)
        if zeros.size:
            used = int(zeros[0]) + 1
            value = used
        else:
            used = cap
            value = cap
        self._consume(node, offset, offset + used)
        return value, used

    def geometrics(self, nodes: Sequence[object], cap: int,
                   offset: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """One Geometric(1/2) draw per node, all at the same ``offset``.

        The bulk form of :meth:`geometric` for phase-structured
        algorithms (Elkin–Neiman shifts: every live node draws from its
        own stream's block ``[offset, offset + cap)``). Returns
        ``(values, bits_used)`` arrays aligned with ``nodes``; values,
        metering and errors match per-node :meth:`geometric` calls
        exactly. One :meth:`_per_node_pass`: each draw is the first zero
        of its node's row (one ``argmax``).
        """
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")

        def first_zero(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            zero = raw == 0
            first = zero.argmax(axis=1)
            steps = np.where(zero[np.arange(len(raw)), first], first + 1, cap)
            return steps, steps

        # A Geometric(1/2) value is the number of flips it read, so
        # ``values`` doubles as ``bits_used``.
        values = self._per_node_pass(
            nodes, offset, cap, np.empty(len(nodes), dtype=np.int64),
            first_zero, lambda node: self.geometric(node, cap, offset)[0])
        return values, values.copy()

    def bits_each(self, nodes: Sequence[object], count: int,
                  offset: int = 0) -> np.ndarray:
        """Bits ``[offset, offset + count)`` of every node's stream, as
        the rows of a ``uint8[len(nodes), count]`` matrix.

        The bulk form of :meth:`bits_block` and the raw-bits sibling of
        :meth:`geometrics` (one :meth:`_per_node_pass`): values,
        metering and errors match per-node :meth:`bits_block` calls
        exactly.
        """
        if count <= 0:
            return np.empty((len(nodes), 0), dtype=np.uint8)
        return self._per_node_pass(
            nodes, offset, count,
            np.empty((len(nodes), count), dtype=np.uint8),
            lambda raw: (raw, np.full(len(raw), count)),
            lambda node: self.bits_block(node, count, offset))

    def _per_node_pass(self, nodes: Sequence[object], offset: int,
                       count: int, out: np.ndarray,
                       draw: Callable[[np.ndarray],
                                      Tuple[np.ndarray, np.ndarray]],
                       one: Callable[[object], object]) -> np.ndarray:
        """Fill ``out[i]`` with node ``i``'s value, as ``one(nodes[i])``
        draws it from bits ``[offset, offset + count)`` of its stream.

        The skeleton of the one-pass per-node samplers. Every node's
        block comes from one :meth:`_raw_blocks` call, and
        ``draw(raw) -> (values, used)`` turns that matrix into each
        row's value and the number of bits it read. Only the ledger
        update stays per node, in node order: one ``IntervalSet.add``
        per node, or :meth:`_consume` under a bit budget so exhaustion
        raises at the same node with the same served prefix. A node
        whose bounded stream does not hold the whole range keeps its
        ``one`` call at its place in that order. If generation raises,
        nothing is metered yet and ``one`` is replayed node by node, so
        the error and the partial ledger are the per-node calls'.
        """
        short = [limit is not None and (offset < 0 or offset + count > limit)
                 for limit in map(self._stream_limit, nodes)]
        fast = [node for node, slow in zip(nodes, short) if not slow]
        try:
            raw = self._raw_blocks(fast, offset, count)
        except Exception:
            # Any generation error (a range error, a node that is not an
            # integer, ...): nothing is metered yet, so replay per node
            # for their error and their partial ledger.
            for i, node in enumerate(nodes):
                out[i] = one(node)
            return out
        values, used = draw(raw)
        out[~np.array(short, dtype=bool)] = values

        ledgers = self._ledgers
        budget = self._bit_budget
        ends = iter((offset + used).tolist())
        for i, (node, slow) in enumerate(zip(nodes, short)):
            if slow:
                out[i] = one(node)
                continue
            end = next(ends)
            if budget is not None:
                self._consume(node, offset, end)
                continue
            ledger = ledgers.get(node)
            if ledger is None:
                ledger = ledgers[node] = IntervalSet()
            self._total_consumed += ledger.add(offset, end)
        return out

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def bits_consumed(self) -> int:
        """Number of distinct bits served so far, across all nodes."""
        return self._total_consumed

    def bits_consumed_by(self, node: object) -> int:
        """Number of distinct bits served to one node."""
        ledger = self._ledgers.get(node)
        return ledger.total if ledger is not None else 0

    def nodes_touched(self) -> Iterable[object]:
        """Nodes that have consumed at least one bit."""
        return self._ledgers.keys()

    def reset_meter(self) -> None:
        """Clear the ledger (bits remain a deterministic seed function)."""
        self._ledgers.clear()
        self._total_consumed = 0

    def describe(self) -> str:
        """One-line human-readable description of the source."""
        name = type(self).__name__
        seed = "unbounded" if self.seed_bits is None else f"{self.seed_bits}b seed"
        return f"{name}({seed}, served={self.bits_consumed})"
