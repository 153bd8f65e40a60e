"""Globally shared randomness — direction (C) of Section 3.

A :class:`SharedRandomness` object models a public random string of a
fixed number of bits, visible to every node (and to nobody's advantage:
there is no private randomness). The paper's headline uses:

* Lemma 3.4 — O(log n) shared bits solve splitting in zero rounds;
* Theorem 3.6 — poly(log n) shared bits build an
  (O(log n), O(log² n))-decomposition in CONGEST;
* Section 3.2 — poly(log n) shared bits expand to poly(n) k-wise
  independent bits via [AS04], which is what :meth:`expand_kwise` does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, RandomnessExhausted
from .block import BlockStream, derive_key
from .kwise import KWiseSource
from .source import RandomSource, first_outside, pack_bits


class SharedRandomness(RandomSource):
    """A finite public random string, readable by every node.

    The string is materialized up front (``seed_bits`` bits, one
    counter-mode PRF pass into a numpy bit array) so reads can never
    exceed the declared budget. ``bit(node, index)`` ignores the node
    argument — the string is global — but keeps the
    :class:`RandomSource` interface so algorithms are source-agnostic.
    """

    def __init__(self, num_bits: int, seed: int = 0,
                 explicit_bits: Optional[List[int]] = None):
        super().__init__(bit_budget=None)
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        self.seed = seed
        self.seed_bits = num_bits
        if explicit_bits is not None:
            if len(explicit_bits) != num_bits:
                raise ConfigurationError(
                    f"expected {num_bits} explicit bits, got {len(explicit_bits)}"
                )
            if any(b not in (0, 1) for b in explicit_bits):
                raise ConfigurationError("explicit_bits must contain only 0/1")
            self._bits = np.array(explicit_bits, dtype=np.uint8)
        else:
            self._bits = self._materialize(seed, num_bits)

    @staticmethod
    def _materialize(seed: int, num_bits: int) -> np.ndarray:
        stream = BlockStream(derive_key("repro-shared", seed))
        return stream.read(0, num_bits).copy()

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        for start in starts.tolist():
            index = first_outside(start, count, self.seed_bits)
            if index is not None:
                raise RandomnessExhausted(
                    f"shared string has {self.seed_bits} bits; "
                    f"index {index} requested")
        return self._bits[starts[:, None] + np.arange(count)]

    def _stream_limits(self, nodes: List[object]) -> np.ndarray:
        return np.full(len(nodes), self.seed_bits, dtype=np.int64)

    def global_bit(self, index: int) -> int:
        """Read bit ``index`` of the public string (node-independent)."""
        return self.bit("__shared__", index)

    def global_bits(self, count: int, offset: int = 0) -> List[int]:
        """Read ``count`` consecutive public bits starting at ``offset``."""
        return self.bits("__shared__", count, offset)

    def as_int(self, count: int, offset: int = 0) -> int:
        """Pack ``count`` public bits into an integer (big-endian)."""
        return pack_bits(self.bits_block("__shared__", count, offset))

    def expand_kwise(self, k: int, num_nodes: int, bits_per_node: int,
                     offset: int = 0) -> KWiseSource:
        """Deterministically expand shared bits into a k-wise source.

        This is the [AS04] step quoted in Section 3.2: consume
        ``k * m`` shared bits (``m`` = field degree) as the polynomial
        coefficients and hand every node a poly(n)-bit k-wise independent
        stream. Raises :class:`RandomnessExhausted` if the shared string
        is too short — making the seed-length accounting explicit.
        """
        probe = KWiseSource(k, num_nodes, bits_per_node, coefficients=[0] * k)
        m = probe.field.m
        needed = k * m
        coeff_bits = self.bits_block("__shared__", needed, offset)
        coeffs = [pack_bits(coeff_bits[i * m:(i + 1) * m]) for i in range(k)]
        return KWiseSource(k, num_nodes, bits_per_node, coefficients=coeffs)

    @classmethod
    def enumerate_all(cls, num_bits: int):
        """Yield every possible shared string of ``num_bits`` bits.

        The seed-enumeration derandomization of Lemma 4.1 iterates over
        exactly this space.
        """
        for raw in range(1 << num_bits):
            bits = [(raw >> i) & 1 for i in range(num_bits)]
            yield cls(num_bits, explicit_bits=bits)
