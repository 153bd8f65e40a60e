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

A source implements two methods:

* :meth:`RandomSource._raw_bits` — ``(nodes, starts, count) ->
  uint8[len(nodes), count]``: the unmetered bits
  ``[starts[i], starts[i] + count)`` of ``nodes[i]``'s stream, raising
  the source's own error for an out-of-range node or index;
* :meth:`RandomSource._stream_limits` — ``nodes -> None | int64[n]``:
  ``None`` when every stream is unbounded (the default), else each
  lane's stream length (``0`` for a node that has no stream).

Every public reader, scalar (:meth:`~RandomSource.bit`,
:meth:`~RandomSource.bits_block`, :meth:`~RandomSource.uniform_int`,
:meth:`~RandomSource.geometric`) or bulk
(:meth:`~RandomSource.bits_each`, :meth:`~RandomSource.uniform_int_each`,
:meth:`~RandomSource.geometrics`), is a call of one skeleton over lanes
(one lane per node). A read asks for every lane's limit with one
:meth:`_stream_limits` call; each attempt generates every live lane's
window with one :meth:`_raw_bits` call; then one :meth:`_meter` call,
the only writer of the ledger, meters the lanes in node order. So a
lane costs what the two hooks spend on it plus one ledger update.
Values, metering and errors are those of reading bit by bit: a lane
that runs past its stream's end meters the prefix it read and raises
the source's error at the first index it lacked; a bit budget raises
at the first index that did not fit.

To add a source, subclass :class:`RandomSource`, implement
:meth:`_raw_bits` (vectorize across lanes where the derivation allows)
and, for bounded streams, :meth:`_stream_limits` (one array per call).
"""

from __future__ import annotations

import abc
import functools
import gc
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, RandomnessExhausted
from .block import IntervalSet

#: Stands in for an unbounded stream's limit in the lane arithmetic.
_UNBOUNDED = 1 << 62

#: ``draw(raw) -> (values, used, done)`` over the rows of a window matrix.
Draw = Callable[[np.ndarray], Tuple[np.ndarray, object, object]]


def pack_bits(bits) -> int:
    """Big-endian fold of a 0/1 sequence into an integer."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def first_outside(start: int, count: int, limit: int) -> Optional[int]:
    """The first index of ``[start, start + count)`` outside
    ``[0, limit)``, or None if the range fits."""
    if start < 0 or start >= limit:
        return start
    return limit if start + count > limit else None


def _collector_paused(read):
    """Run ``read`` with CPython's cyclic garbage collector paused.

    A read allocates a few container objects per lane it opens (a
    stream, a ledger and the ledger's two lists) and makes no reference
    cycles. Left running, the collector would scan the young objects
    every 700 of them and, as the heap grows, the whole heap: about a
    quarter of the time of a 10^5-lane read. The previous state is
    restored on return and on error.
    """
    @functools.wraps(read)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return read(*args, **kwargs)
        gc.disable()
        try:
            return read(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _whole_rows(raw: np.ndarray):
    """Draw of the bit readers: every row as read, all of it used."""
    return raw, raw.shape[1], True


def _first_zero(raw: np.ndarray):
    """Draw of the Geometric(1/2) samplers: the value is the index of
    the first zero flip (capped at the row length), which is also the
    number of bits read."""
    zero = raw == 0
    steps = np.where(zero.any(axis=1), zero.argmax(axis=1) + 1, raw.shape[1])
    return steps, steps, True


class RandomSource(abc.ABC):
    """Abstract source of per-node random bits.

    Subclasses implement :meth:`_raw_bits` (and :meth:`_stream_limits`
    for bounded streams); the public API adds metering, budget
    enforcement, and derived samplers (uniform integers, geometric
    variables) built only from bits, so the bit count is the single
    currency of randomness.
    """

    #: total independent seed bits behind this source (None = unbounded).
    seed_bits: Optional[int] = None

    def __init__(self, bit_budget: Optional[int] = None):
        self._bit_budget = bit_budget
        self._ledgers: Dict[object, IntervalSet] = {}
        self._total_consumed = 0

    # ------------------------------------------------------------------
    # Raw generation (subclass contract)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        """Bits ``[starts[i], starts[i] + count)`` of ``nodes[i]``'s
        stream, as the rows of a ``uint8[len(nodes), count]`` matrix.

        Unmetered, ``count >= 1``. Raises the source's own error for a
        node without a stream or an index outside it.
        """

    def _stream_limits(self, nodes: List[object]) -> Optional[np.ndarray]:
        """Exclusive upper bound on valid bit indices for each lane:
        ``int64[len(nodes)]``, ``0`` for a node that has no stream.

        ``None`` (the default) means every stream is unbounded. The
        readers never generate past a limit, so a read whose prefix
        decides the value never *peeks* beyond the end of the stream.
        """
        return None

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    def _meter(self, nodes: List[object], first: List[int],
               ends: List[int]) -> None:
        """Meter ``[first[i], ends[i])`` of ``nodes[i]``'s stream for
        every lane of one read, in lane order (the shortest of the three
        lists sets the lanes).

        Already-served sub-ranges are free re-reads. Under a bit budget,
        the lanes are walked one by one: the first range that does not
        fit records the prefix that does, and the exception names the
        first index that did not — what bit-at-a-time accounting would
        have done.
        """
        ledgers = self._ledgers
        budget = self._bit_budget
        if budget is None:
            known = ledgers.get
            served = 0
            try:
                for node, start, end in zip(nodes, first, ends):
                    if start < end:
                        ledger = known(node)
                        if ledger is None:
                            ledger = ledgers[node] = IntervalSet()
                        served += ledger.add(start, end)
            finally:
                self._total_consumed += served
            return
        for node, start, end in zip(nodes, first, ends):
            cut = end
            room = budget - self._total_consumed
            ledger = ledgers.get(node)
            gaps = [(start, end)] if ledger is None \
                else ledger.missing(start, end)
            for s, e in gaps:
                if e - s > room:
                    cut = s + room
                    break
                room -= e - s
            if start < cut:
                if ledger is None:
                    ledger = ledgers[node] = IntervalSet()
                self._total_consumed += ledger.add(start, cut)
            if cut < end:
                raise RandomnessExhausted(
                    f"bit budget of {budget} bits exhausted "
                    f"(node {node!r} requested index {cut})")

    # ------------------------------------------------------------------
    # The skeleton behind every reader
    # ------------------------------------------------------------------
    @_collector_paused
    def _lanes(self, nodes: Sequence[object], starts, count: int,
               draw: Draw, attempts: int = 1,
               stuck: Optional[Callable[[], Exception]] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """One value per lane, lane ``i`` reading ``nodes[i]``'s stream
        from ``starts[i]`` (an int is every lane's start).

        Each attempt reads ``count`` bits at every live lane's cursor
        (:meth:`_window`); ``draw(raw) -> (values, used, done)`` turns
        that matrix into each row's value, the bits it read and whether
        the lane is settled. Unsettled lanes read again at their
        advanced cursor, up to ``attempts`` times; a lane still
        unsettled then raises ``stuck()``. Returns ``(values, used)``,
        ``used`` being the bits each lane read (an int when all read the
        same).

        Lanes are metered in node order, each over the contiguous range
        it read. The first lane that failed meters its prefix and
        raises: the source's error at the first index past its stream's
        end (a draw that used more bits than the lane holds), or
        ``stuck()``.
        """
        if not isinstance(nodes, list):
            nodes = list(nodes)
        n = len(nodes)
        if isinstance(starts, int):
            first = [starts] * n
            start = np.array(first, dtype=np.int64)
        else:
            start = np.array(starts, dtype=np.int64).reshape(n)
            first = start.tolist()
        limits = self._stream_limits(nodes)
        stop, clip = None, False  # no lane can run short
        if limits is not None or min(first, default=0) < 0:
            # A lane's readable range ends at its stream's end, or at its
            # start if that lies outside the stream; clip an attempt's
            # windows only where some lane may hold less than a window.
            if limits is None:
                limits = np.full(n, _UNBOUNDED, dtype=np.int64)
            stop = np.where((start < 0) | (start >= limits), start, limits)
            clip = bool((stop - start < count).any())
        short = None  # lanes that ran past their stream's end
        live = None  # lanes still drawing; None: every lane
        for _ in range(attempts):
            if live is None:
                lanes, at = nodes, start
            else:
                lanes, at = [nodes[i] for i in live.tolist()], cursor[live]
                clip = stop is not None
            if clip:
                avail = np.minimum((stop if live is None else stop[live]) - at,
                                   count)
                raw = self._window(lanes, at, avail, count)
            else:
                avail = None  # every lane holds its whole window
                raw = self._raw_bits(lanes, at, count)
            got, used, done = draw(raw)
            if avail is not None:
                past = used > avail
                used = np.minimum(used, avail)
                if past.any():
                    if short is None:
                        short = np.zeros(n, dtype=bool)
                    short[past if live is None else live[past]] = True
                    done = past | done
            if live is not None:
                values[live] = got
                cursor[live] += used
                live = live[~done]
            elif done is True or done.all():
                values = got  # every lane settled on its first attempt
                break
            else:
                values, cursor = got, start + used
                live = np.flatnonzero(~done)
            if not live.size:
                break

        if live is None:
            ends = [a + used for a in first] if isinstance(used, int) \
                else (start + used).tolist()
        else:
            ends, used = cursor.tolist(), cursor - start
        # The first lane that ran short or stayed unsettled, if any.
        bad = n
        stuck_lanes = live is not None and live.size > 0
        if short is not None or stuck_lanes:
            failed = np.zeros(n, dtype=bool) if short is None \
                else short.copy()
            if stuck_lanes:
                failed[live] = True
            if failed.any():
                bad = int(failed.argmax())
        # Every lane up to the first failed one, that one's prefix too.
        self._meter(nodes if bad == n else nodes[:bad + 1], first, ends)
        if bad < n:
            node, end = nodes[bad], ends[bad]
            if short is not None and short[bad]:
                self._raw_bits([node], np.array([end]), 1)
                raise ConfigurationError(
                    f"{type(self).__name__} served index {end} of node "
                    f"{node!r}, past its stream limit")
            raise stuck()
        return values, used

    def _window(self, lanes: List[object], at: np.ndarray,
                avail: np.ndarray, count: int) -> np.ndarray:
        """Bits ``[at[j], at[j] + count)`` of ``lanes[j]``'s stream, of
        which it holds ``avail[j]``; the rest read as 0 (a draw that
        uses them used more than the lane holds).

        Lanes that hold the whole window are generated by one
        :meth:`_raw_bits` call; the held prefixes of the rest (lanes at
        a bounded stream's end) by one call per distinct prefix length.
        """
        held = avail.tolist()
        if min(held) == count:
            return self._raw_bits(lanes, at, count)
        raw = np.zeros((len(lanes), count), dtype=np.uint8)
        for length in sorted(set(held) - {0}):
            rows = [j for j, h in enumerate(held) if h == length]
            raw[rows, :length] = self._raw_bits(
                [lanes[j] for j in rows], at[rows], length)
        return raw

    def _bit_rows(self, nodes: Sequence[object], count: int,
                  offset: int) -> np.ndarray:
        """Bits ``[offset, offset + count)`` of every node's stream, as
        the rows of a ``uint8[len(nodes), count]`` matrix."""
        if count <= 0:
            return np.empty((len(nodes), 0), dtype=np.uint8)
        return self._lanes(nodes, offset, count, _whole_rows)[0]

    def _geometrics(self, nodes: Sequence[object], cap: int,
                    offset: int) -> Tuple[np.ndarray, np.ndarray]:
        """One Geometric(1/2) draw per node from ``[offset, offset + cap)``
        of its stream: the first zero of its row."""
        if cap < 1:
            raise ConfigurationError(f"cap must be at least 1, got {cap}")
        return self._lanes(nodes, offset, cap, _first_zero)

    def _uniform(self, nodes: Sequence[object], bound: int,
                 offsets) -> Tuple[np.ndarray, np.ndarray]:
        """One rejection-sampled draw in ``[0, bound)`` per node.

        Each attempt folds ``ceil(log2 bound)`` bits big-endian and
        accepts a value below ``bound``; a rejected lane reads the next
        window of its stream, up to 64 attempts (each fails with
        probability < 1/2, so all 64 fail with probability < 2^-64).
        Bounds up to ``2**62`` fold in int64; wider ones in Python ints.
        """
        if bound <= 0:
            raise ConfigurationError(f"bound must be positive, got {bound}")
        if bound == 1:
            zeros = np.zeros(len(nodes), dtype=np.int64)
            return zeros, zeros.copy()
        width = (bound - 1).bit_length()
        if width <= 62:
            weights = np.left_shift(1, np.arange(width - 1, -1, -1),
                                    dtype=np.int64)

            def fold(raw):
                return raw @ weights
        else:
            def fold(raw):
                drawn = np.empty(len(raw), dtype=object)
                drawn[:] = [pack_bits(row) for row in raw.tolist()]
                return drawn

        def draw(raw):
            drawn = fold(raw)
            return drawn, width, (drawn < bound).astype(bool, copy=False)

        values, used = self._lanes(
            nodes, offsets, width, draw, attempts=64,
            stuck=lambda: RandomnessExhausted(
                f"rejection sampling for bound {bound} did not converge"))
        if isinstance(used, int):
            used = np.full(len(values), used, dtype=np.int64)
        return values, used

    # ------------------------------------------------------------------
    # Scalar readers (one lane)
    # ------------------------------------------------------------------
    def bit(self, node: object, index: int) -> int:
        """Metered access to bit ``index`` of ``node``'s random string."""
        return int(self._bit_rows([node], 1, index)[0, 0])

    def bits(self, node: object, count: int, offset: int = 0) -> List[int]:
        """Return ``count`` consecutive bits starting at ``offset``."""
        return self._bit_rows([node], count, offset)[0].tolist()

    def bits_block(self, node: object, count: int,
                   offset: int = 0) -> np.ndarray:
        """Metered bulk read: ``count`` bits from ``offset`` as uint8.

        One generation call and one ledger operation regardless of
        ``count``; consumption is identical to ``count`` calls of
        :meth:`bit` — including on the error path: a read that runs past
        a bounded stream's end meters the valid prefix before raising.
        """
        return self._bit_rows([node], count, offset)[0]

    def uniform_int(self, node: object, bound: int,
                    offset: int = 0) -> Tuple[int, int]:
        """Sample an integer in ``[0, bound)`` from the node's bit stream.

        Uses rejection sampling over ``ceil(log2 bound)`` bits per attempt,
        which preserves exact uniformity (important for the limited-
        independence analyses). Returns ``(value, bits_used)`` so callers
        can advance their stream offset.
        """
        values, used = self._uniform([node], bound, [offset])
        return int(values[0]), int(used[0])

    def geometric(self, node: object, cap: int,
                  offset: int = 0) -> Tuple[int, int]:
        """Sample a Geometric(1/2) variable: Pr[X = k] = 2^-k for k >= 1.

        This is the discrete analog of the exponential shifts in the
        Elkin–Neiman construction (footnote 8 of the paper): flip fair
        coins until the first tail; the value is the index of that flip.
        The value is capped at ``cap`` (the paper caps at Theta(log n),
        which holds w.h.p. anyway). Returns ``(value, bits_used)``.

        Only the bits actually examined (up to and including the first
        tail) are consumed, exactly as with bit-at-a-time flipping; a
        draw that ends before a bounded stream does succeeds.
        """
        values, used = self._geometrics([node], cap, offset)
        return int(values[0]), int(used[0])

    # ------------------------------------------------------------------
    # Bulk readers (one lane per node)
    # ------------------------------------------------------------------
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
        exactly. Each rejection round is one generation call over the
        lanes still rejected.
        """
        return self._uniform(nodes, bound, offsets)

    def geometrics(self, nodes: Sequence[object], cap: int,
                   offset: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """One Geometric(1/2) draw per node, all at the same ``offset``.

        The bulk form of :meth:`geometric` for phase-structured
        algorithms (Elkin–Neiman shifts: every live node draws from its
        own stream's block ``[offset, offset + cap)``). Returns
        ``(values, bits_used)`` arrays aligned with ``nodes``; values,
        metering and errors match per-node :meth:`geometric` calls
        exactly. Each draw is the first zero of its node's row (one
        ``argmax``).
        """
        return self._geometrics(nodes, cap, offset)

    def bits_each(self, nodes: Sequence[object], count: int,
                  offset: int = 0) -> np.ndarray:
        """Bits ``[offset, offset + count)`` of every node's stream, as
        the rows of a ``uint8[len(nodes), count]`` matrix.

        The bulk form of :meth:`bits_block`: values, metering and errors
        match per-node :meth:`bits_block` calls exactly.
        """
        return self._bit_rows(nodes, count, offset)

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
