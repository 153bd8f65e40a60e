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
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .block import BLOCK_BITS, BlockStream, derive_key
from .source import RandomSource


def _derive_stream_key(master_seed: int, node: object) -> bytes:
    """Derive a per-node stream key from the master seed, stably.

    Uses a keyed hash over the textual key so the mapping does not depend
    on Python's per-process hash randomization.
    """
    return derive_key("repro-independent", master_seed, repr(node))


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

    def _stream(self, node: object) -> BlockStream:
        stream = self._streams.get(node)
        if stream is None:
            stream = BlockStream(_derive_stream_key(self.seed, node))
            self._streams[node] = stream
        return stream

    @staticmethod
    def _check_index(node: object, index: int) -> None:
        if index < 0:
            raise ConfigurationError(
                f"node {node!r} requested negative stream index {index}")

    def _raw_bit(self, node: object, index: int) -> int:
        self._check_index(node, index)
        return self._stream(node).bit(index)

    def _raw_block(self, node: object, start: int, count: int) -> np.ndarray:
        self._check_index(node, start)
        return self._stream(node).read(start, count)

    def _raw_blocks(self, nodes: Sequence[object], start: int,
                    count: int) -> np.ndarray:
        """Every node's bits ``[start, start + count)``: the digests of
        the blocks under the range, read through :meth:`_digest_blocks`
        (so the block cache sees every block) and unpacked in one call.
        A negative ``start`` goes through the per-node base path, which
        names the first node."""
        if start < 0:
            return super()._raw_blocks(nodes, start, count)
        first = start // BLOCK_BITS
        covered = range(first, (start + count - 1) // BLOCK_BITS + 1)
        rows = np.hstack([self._digest_blocks(nodes, np.full(len(nodes), b))
                          for b in covered])
        lo = start - first * BLOCK_BITS
        bits = np.unpackbits(rows[:, lo >> 3:(lo + count + 7) >> 3], axis=1,
                             bitorder="little")
        return bits[:, (lo & 7):(lo & 7) + count]

    def _digest_blocks(self, nodes: Sequence[object],
                       block_indices: np.ndarray) -> np.ndarray:
        """Raw PRF block ``block_indices[i]`` of ``nodes[i]``'s stream, for
        every ``i``, as the rows of a ``uint8[len(nodes), 64]`` matrix.

        The hook behind :meth:`RandomSource.uniform_int_each`'s one-pass
        path and :meth:`_raw_blocks`; indices must be non-negative.
        """
        stream = self._stream
        data = b"".join([stream(v).block(b)
                         for v, b in zip(nodes, block_indices.tolist())])
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, 64)

    def fork(self, label: str) -> "IndependentSource":
        """Derive an independent child source (for multi-phase algorithms).

        The child's bits are independent of the parent's for all practical
        purposes (distinct PRF key spaces), while staying reproducible.
        """
        return IndependentSource(seed=_derive_fork_seed(self.seed, label),
                                 bit_budget=self._bit_budget)
