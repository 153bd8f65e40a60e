"""Epsilon-biased sample spaces via the powering construction.

Lemma 3.4 cites Naor–Naor [NN93]: O(log n) shared bits drawn from a
small-bias space suffice for the splitting problem. We implement the
classic AGHP "powering" construction, which matches [NN93]'s parameters:

    sample = (x, y) in GF(2^m)^2,   bit_i = <bits(x^i), bits(y)>,

producing ``L`` bits with bias at most ``(L - 1) / 2^m`` against every
non-empty parity. The seed is ``2m = O(log(L / eps))`` bits — for
``L = poly(n)`` and ``eps = 1/poly(n)`` that is ``O(log n)`` shared bits,
exactly Lemma 3.4's budget.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .finite_field import GF2m, min_degree_for
from .kwise import address_limits, address_points
from .source import RandomSource


def _parity64(values: np.ndarray) -> np.ndarray:
    """Bitwise parity (popcount mod 2) of non-negative int64 values.

    XOR-folding, so it works on every numpy version (``bitwise_count``
    only arrived in numpy 2.0).
    """
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(np.uint8)


def degree_for_bias(num_bits: int, epsilon: float) -> int:
    """Smallest supported field degree achieving bias <= epsilon.

    Solves ``(num_bits - 1) / 2^m <= epsilon`` over supported degrees.
    """
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0,1), got {epsilon}")
    if num_bits < 2:
        return min_degree_for(2)
    needed = (num_bits - 1) / epsilon
    m = 1
    while (1 << m) < needed:
        m += 1
    return min_degree_for(1 << m)


class EpsilonBiasedSource(RandomSource):
    """A source of ``num_nodes * bits_per_node`` eps-biased bits.

    Bit ``index`` of node ``node`` is bit ``node * bits_per_node + index``
    of the AGHP sample. The whole space has ``2^(2m)`` points, so
    exhaustive enumeration (:meth:`enumerate_seeds`) is feasible for small
    ``m`` — used by tests that measure the actual bias.

    Parameters
    ----------
    num_nodes, bits_per_node:
        Address space, as in :class:`~repro.randomness.kwise.KWiseSource`.
    epsilon:
        Target bias; determines the field degree and hence seed length.
    seed:
        Integer seed expanded into the pair ``(x, y)``; or pass ``x``/``y``
        explicitly.
    """

    def __init__(self, num_nodes: int, bits_per_node: int, epsilon: float,
                 seed: int = 0, x: Optional[int] = None, y: Optional[int] = None):
        super().__init__(bit_budget=None)
        if num_nodes < 1 or bits_per_node < 1:
            raise ConfigurationError("num_nodes and bits_per_node must be >= 1")
        self.num_nodes = num_nodes
        self.bits_per_node = bits_per_node
        self.epsilon = epsilon
        total_bits = num_nodes * bits_per_node
        self.field = GF2m(degree_for_bias(total_bits, epsilon))
        m = self.field.m
        if x is None or y is None:
            digest = hashlib.sha256(f"repro-biased:{seed}".encode()).digest()
            pool = int.from_bytes(digest, "big")
            x = pool & (self.field.order - 1)
            y = (pool >> m) & (self.field.order - 1)
        self.x = self.field.element(x)
        self.y = self.field.element(y)
        self.seed_bits = 2 * m

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        """Every lane's bits from one :meth:`GF2m.pow_vec` call over all
        ``len(nodes) * count`` points. Sample bit ``i`` is
        ``<bits(x^(i+1)), bits(y)>``; starting the powers at ``x^1``
        avoids the degenerate constant bit at ``i = 0`` when ``x = 1``."""
        points = address_points(nodes, starts, count, self.num_nodes,
                                self.bits_per_node)
        powers = self.field.pow_vec(self.x, points.ravel() + 1)
        return _parity64(powers & self.y).reshape(points.shape)

    def _stream_limits(self, nodes: List[object]) -> np.ndarray:
        return address_limits(nodes, self.num_nodes, self.bits_per_node)

    @classmethod
    def enumerate_seeds(cls, num_nodes: int, bits_per_node: int, epsilon: float):
        """Yield a source for every (x, y) pair in the sample space."""
        probe = cls(num_nodes, bits_per_node, epsilon, x=0, y=0)
        order = probe.field.order
        for x in range(order):
            for y in range(order):
                yield cls(num_nodes, bits_per_node, epsilon, x=x, y=y)
