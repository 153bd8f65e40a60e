"""Counter-mode PRF blocks and interval ledgers — the block-mode substrate.

Two building blocks shared by every :class:`~repro.randomness.source.
RandomSource` implementation:

* :class:`BlockStream` — a lazily materialized, random-access bit stream.
  Block ``i`` is the 64-byte digest ``BLAKE2b(key=stream_key, data=i)``,
  cached as raw bytes; bit ``j`` is bit ``j % 8`` (little-endian) of
  byte ``j // 8``. Reading bit ``j`` costs one dict lookup plus a byte
  index and a shift, *independent of j* (counter mode: no chaining, so
  any index is O(1) away — unlike the old iterated-SHA-256 chain that
  had to hash every block below the target). Bulk readers unpack only
  the bytes they touch, and samplers that draw from many streams at once
  can stack the raw digests into one ``uint8[k, 64]`` matrix.
* :class:`IntervalSet` — sorted disjoint half-open integer ranges with
  O(log k) insertion (k = number of fragments). The metering ledger keeps
  one of these per node instead of one dict entry per served bit, so a
  contiguous read of any length costs O(1) amortized ledger work.

Both are internal machinery; the public metering contract lives in
:mod:`repro.randomness.source`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

import numpy as np

#: bits per PRF block (one 64-byte BLAKE2b digest).
BLOCK_BITS = 512
_BLOCK_SHIFT = 9  # log2(BLOCK_BITS)
_BLOCK_MASK = BLOCK_BITS - 1


def derive_key(*parts: object) -> bytes:
    """Derive a 32-byte stream key from arbitrary labelled parts.

    Each part is rendered to text and length-prefixed, so distinct part
    tuples can never collide by concatenation; the mapping is independent
    of Python's per-process hash randomization.
    """
    return key_prefix(*parts).digest()


def key_prefix(*parts: object) -> "hashlib._Hash":
    """The BLAKE2b state :func:`derive_key` digests for ``parts``.

    Feeding a ``copy()`` the length-prefixed text of further parts and
    digesting it gives ``derive_key(*parts, *more)``: a family of keys
    that share their leading parts hashes those once.
    """
    state = hashlib.blake2b(digest_size=32)
    for part in parts:
        data = str(part).encode()
        state.update(len(data).to_bytes(4, "big") + data)
    return state


class BlockStream:
    """Random-access deterministic bit stream in counter mode.

    Bit ``index`` lives in block ``index // 512``; blocks are generated
    on demand and cached as their raw 64-byte digests, bit ``j`` of a
    block being bit ``j % 8`` of byte ``j // 8`` (little-endian bit
    order within each digest byte).
    """

    __slots__ = ("_key", "_blocks")

    def __init__(self, key: bytes):
        self._key = key
        self._blocks: Dict[int, bytes] = {}

    def block(self, i: int) -> bytes:
        """The 64-byte digest of the block with counter ``i`` (cached)."""
        cached = self._blocks.get(i)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            i.to_bytes(8, "big"), key=self._key, digest_size=64).digest()
        self._blocks[i] = digest
        return digest

    def read(self, start: int, count: int) -> np.ndarray:
        """``count`` consecutive bits from ``start`` as a uint8 array.

        Touches only ``ceil(count / 512) + 1`` blocks and unpacks only
        the digest bytes under the range.
        """
        if count <= 0:
            return np.empty(0, dtype=np.uint8)
        first = start >> _BLOCK_SHIFT
        last = (start + count - 1) >> _BLOCK_SHIFT
        if first == last:
            data = self.block(first)
        else:
            data = b"".join([self.block(i) for i in range(first, last + 1)])
        lo = start & _BLOCK_MASK
        hi = lo + count
        raw = np.frombuffer(data[lo >> 3:(hi + 7) >> 3], dtype=np.uint8)
        skip = lo & 7
        return np.unpackbits(raw, bitorder="little")[skip:skip + count]


class IntervalSet:
    """Sorted disjoint half-open intervals over the integers.

    No two intervals touch (``add`` merges adjacent ones), so a covered
    set has one representation whatever order its ranges arrived in.

    The metering ledger: ``add`` returns how many integers were newly
    covered, ``missing`` lists the uncovered gaps of a query range, and
    ``total`` tracks the covered count — everything the budget and
    per-node accounting need, at O(log k) per contiguous operation.
    """

    __slots__ = ("starts", "ends", "total")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.total = 0

    def covers(self, index: int) -> bool:
        """Whether ``index`` is inside some interval."""
        j = bisect_right(self.starts, index) - 1
        return j >= 0 and self.ends[j] > index

    def missing(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The sub-ranges of ``[start, end)`` not yet covered, in order."""
        if start >= end:
            return []
        gaps: List[Tuple[int, int]] = []
        j = bisect_right(self.starts, start) - 1
        if j >= 0 and self.ends[j] > start:
            start = self.ends[j]
        j += 1
        while start < end and j < len(self.starts) and self.starts[j] < end:
            if self.starts[j] > start:
                gaps.append((start, self.starts[j]))
            start = max(start, self.ends[j])
            j += 1
        if start < end:
            gaps.append((start, end))
        return gaps

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging neighbors; returns new count."""
        if start >= end:
            return 0
        starts, ends = self.starts, self.ends
        # Fast paths for the dominant access pattern: cursor-style
        # sequential reads that extend (or re-read) the last interval.
        if ends:
            last_end = ends[-1]
            if start == last_end:
                ends[-1] = end
                self.total += end - start
                return end - start
            if start > last_end:
                starts.append(start)
                ends.append(end)
                self.total += end - start
                return end - start
            if starts[-1] <= start and end <= last_end:
                return 0  # re-read fully inside the last interval
        else:
            starts.append(start)
            ends.append(end)
            self.total += end - start
            return end - start
        # Leftmost interval that touches-or-overlaps [start, end).
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo == hi:
            # No overlap or adjacency: plain insert.
            starts.insert(lo, start)
            ends.insert(lo, end)
            self.total += end - start
            return end - start
        merged_start = min(start, starts[lo])
        merged_end = max(end, ends[hi - 1])
        replaced = sum(ends[j] - starts[j] for j in range(lo, hi))
        del starts[lo:hi]
        del ends[lo:hi]
        starts.insert(lo, merged_start)
        ends.insert(lo, merged_end)
        added = (merged_end - merged_start) - replaced
        self.total += added
        return added

    def __len__(self) -> int:
        return len(self.starts)

    def __repr__(self) -> str:
        ranges = ", ".join(f"[{s},{e})" for s, e in zip(self.starts, self.ends))
        return f"IntervalSet({ranges})"
