"""Finite pools of gathered bits, one pool per cluster.

Lemma 3.2 gathers the single bits of many sparse holders to a cluster
center; Lemma 3.3 / Theorem 3.7 then spend that finite pool. A
:class:`PooledBits` source makes the budget physical: each key (cluster)
owns an explicit bit list, and reading past the end raises
:class:`~repro.errors.RandomnessExhausted` — which is exactly the failure
mode the paper's "100 log² n bits suffice w.h.p." arguments bound.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import ConfigurationError, RandomnessExhausted
from .source import RandomSource, first_outside


class PooledBits(RandomSource):
    """Randomness source backed by explicit per-key bit pools."""

    def __init__(self, pools: Dict[object, Sequence[int]]):
        super().__init__(bit_budget=None)
        if not pools:
            raise ConfigurationError("at least one pool is required")
        self._pools: Dict[object, np.ndarray] = {}
        for key, bits in pools.items():
            bits = list(bits)
            if any(b not in (0, 1) for b in bits):
                raise ConfigurationError(f"pool {key!r} contains non-bits")
            self._pools[key] = np.asarray(bits, dtype=np.uint8)
        self.seed_bits = sum(len(b) for b in self._pools.values())

    def _pool(self, node: object) -> np.ndarray:
        pool = self._pools.get(node)
        if pool is None:
            raise ConfigurationError(f"no pool for key {node!r}")
        return pool

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        out = np.empty((len(nodes), count), dtype=np.uint8)
        for row, (node, start) in enumerate(zip(nodes, np.asarray(
                starts).tolist())):
            pool = self._pool(node)
            index = first_outside(start, count, len(pool))
            if index is not None:
                raise RandomnessExhausted(
                    f"pool {node!r} has {len(pool)} bits; "
                    f"index {index} requested")
            out[row] = pool[start:start + count]
        return out

    def _stream_limits(self, nodes: List[object]) -> np.ndarray:
        pools = self._pools
        return np.array([len(pools.get(v, ())) for v in nodes],
                        dtype=np.int64)

    def pool_size(self, key: object) -> int:
        """Total bits in one pool."""
        return len(self._pool(key))

    def remaining(self, key: object) -> int:
        """Bits in the pool not yet consumed."""
        return len(self._pool(key)) - self.bits_consumed_by(key)
