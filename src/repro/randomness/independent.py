"""Fully independent private randomness — the standard model baseline.

Under the textbook definition, every node holds an unbounded stream of
independent fair bits. We realize this with one deterministic counter-mode
PRF stream per node (BLAKE2b keyed by a per-node key derived from the
master seed), so runs are reproducible and the source remains a pure
function of ``(seed, node, index)``. Counter mode gives O(1) random
access to any bit index: block ``i`` of a stream is
``BLAKE2b(key, counter=i)``, no chaining through earlier blocks.
"""

from __future__ import annotations

import hashlib
import operator
from itertools import compress
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
# derive_key defines the stream keys (see IndependentSource._streams_of);
# perfbench's tracer self-test looks it up in this module by name.
from .block import BLOCK_BITS, BlockStream, derive_key, key_prefix  # noqa: F401
from .source import RandomSource


def _plain(node: object) -> object:
    """A numpy integer as the Python int it equals: the two are one dict
    key, so they must name one stream."""
    return int(node) if isinstance(node, np.integer) else node


def _derive_fork_seed(master_seed: int, label: str) -> int:
    """Derive a child master seed for :meth:`IndependentSource.fork`."""
    key = f"repro-independent-fork:{master_seed}:{label}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=32).digest(), "big")


class IndependentSource(RandomSource):
    """Unbounded independent private bits for every node.

    This plays the role of "standard randomized algorithms" throughout the
    paper: full independence, at least one private bit per node, no global
    coordination.

    Parameters
    ----------
    seed:
        Master seed; two sources with the same seed serve identical bits.
    bit_budget:
        Optional global cap on distinct bits served, for experiments that
        bound total randomness (Section 3 framing).
    """

    seed_bits: Optional[int] = None  # unbounded

    def __init__(self, seed: int = 0, bit_budget: Optional[int] = None):
        super().__init__(bit_budget=bit_budget)
        self.seed = seed
        self._streams: Dict[object, BlockStream] = {}
        self._prefix = key_prefix("repro-independent", seed)

    def _streams_of(self, nodes: Sequence[object]) -> List[BlockStream]:
        """Every lane's stream, opening the missing ones in one pass.

        A node's key is ``derive_key("repro-independent", seed,
        repr(node))``, a numpy integer keyed as its int: a copy of the
        state already fed the label and the seed, fed the node's
        length-prefixed ``repr``.
        """
        streams = self._streams
        found = list(map(streams.get, nodes))
        if None not in found:
            return found
        prefix = self._prefix
        # Walk the lanes without a stream lazily and drop ``found`` before
        # the result is built: one n-length list at a time, as in a read
        # whose streams are all open.
        for node in compress(nodes, map(operator.not_, found)):
            if node not in streams:  # a node listed twice opens once
                text = repr(_plain(node)).encode()
                state = prefix.copy()
                state.update(len(text).to_bytes(4, "big") + text)
                streams[node] = BlockStream(state.digest())
        del found
        return list(map(streams.get, nodes))

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        """Every lane's bits ``[starts[i], starts[i] + count)``: the PRF
        blocks under each window, read through :meth:`BlockStream.block`
        (so the block cache sees every block and no other is computed),
        joined into one byte matrix and unpacked at each lane's phase.
        One lane (every scalar read) slices its stream directly."""
        starts = np.asarray(starts, dtype=np.int64)
        if len(starts) and starts.min() < 0:
            i = int(np.argmax(starts < 0))
            raise ConfigurationError(
                f"node {nodes[i]!r} requested negative stream index "
                f"{int(starts[i])}")
        streams = self._streams_of(nodes)
        if len(starts) == 1:
            return streams[0].read(int(starts[0]), count)[None]
        block = starts // BLOCK_BITS
        first = block.tolist()
        spans = (starts + count - 1) // BLOCK_BITS - block + 1
        span = int(spans.max(initial=1))  # blocks per row, zero-padded
        data = b"".join(map(BlockStream.block, streams, first))
        rows = np.frombuffer(data, dtype=np.uint8).reshape(len(first), 64)
        if span > 1:
            rows = np.hstack([rows, np.zeros((len(first), (span - 1) * 64),
                                             dtype=np.uint8)])
            for j in range(1, span):
                lanes = np.flatnonzero(spans > j)
                data = b"".join([streams[i].block(first[i] + j)
                                 for i in lanes.tolist()])
                rows[lanes, j * 64:(j + 1) * 64] = np.frombuffer(
                    data, dtype=np.uint8).reshape(-1, 64)
        lo = starts % BLOCK_BITS  # bit phase in the first block
        phases = lo.tolist()
        low, high = min(phases, default=0), max(phases, default=0)
        if low == high:
            bits = np.unpackbits(rows[:, low >> 3:(low + count + 7) >> 3],
                                 axis=1, bitorder="little")
            return bits[:, (low & 7):(low & 7) + count]
        # Per-lane phases: gather enough bytes for any bit phase.
        lanes = np.arange(len(phases))[:, None]
        byte_idx = np.minimum((lo >> 3)[:, None] + np.arange((count + 14) >> 3),
                              span * 64 - 1)
        bits = np.unpackbits(rows[lanes, byte_idx], axis=1, bitorder="little")
        return bits[lanes, (lo & 7)[:, None] + np.arange(count)]

    def fork(self, label: str) -> "IndependentSource":
        """Derive an independent child source (for multi-phase algorithms).

        The child's bits are independent of the parent's for all practical
        purposes (distinct PRF key spaces), while staying reproducible.
        """
        return IndependentSource(seed=_derive_fork_seed(self.seed, label),
                                 bit_budget=self._bit_budget)
