"""k-wise independent random bits from polynomials over GF(2^m).

This is the standard construction the paper invokes via [AS04] in
Theorem 3.5 and Section 3.2: a uniformly random polynomial of degree
``k - 1`` over GF(2^m), evaluated at distinct field points, yields field
values that are k-wise independent and uniform. We expose one bit per
evaluation point (the low-order bit), so *any* k of the produced bits are
jointly uniform.

Seed length is ``k * m`` bits — i.e. ``O(k log n)`` fully independent bits
expand to ``2^m >= poly(n)`` k-wise independent bits, exactly the
trade-off quoted in the paper ("we need only O(k log n) fully independent
random bits to be able to produce poly(n) random bits that are k-wise
independent").
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .finite_field import GF2m, min_degree_for
from .source import RandomSource, first_outside


def _coefficients_from_seed(seed: int, k: int, m: int) -> List[int]:
    """Expand an integer seed into ``k`` field elements of ``m`` bits."""
    coeffs: List[int] = []
    state = hashlib.sha256(f"repro-kwise:{seed}".encode()).digest()
    pool = int.from_bytes(state, "big")
    pool_bits = 256
    mask = (1 << m) - 1
    while len(coeffs) < k:
        if pool_bits < m:
            state = hashlib.sha256(state).digest()
            pool = (pool << 256) | int.from_bytes(state, "big")
            pool_bits += 256
        coeffs.append(pool & mask)
        pool >>= m
        pool_bits -= m
    return coeffs


def address_limits(nodes: Sequence[object], num_nodes: int,
                   bits_per_node: int) -> np.ndarray:
    """Stream length of each node in a ``num_nodes * bits_per_node``
    address space: ``bits_per_node``, or 0 for a node that is not an
    integer in ``[0, num_nodes)``."""
    def limit(node):
        try:
            node_i = int(node)
        except (TypeError, ValueError):
            return 0
        return bits_per_node if 0 <= node_i < num_nodes else 0

    return np.array([limit(v) for v in nodes], dtype=np.int64)


def address_points(nodes: Sequence[object], starts: np.ndarray, count: int,
                   num_nodes: int, bits_per_node: int,
                   index_note: str = "") -> np.ndarray:
    """The ``int64[len(nodes), count]`` matrix of points
    ``node * bits_per_node + index``, for indices
    ``[starts[i], starts[i] + count)`` of ``nodes[i]``.

    Raises ConfigurationError naming the first lane's node outside
    ``[0, num_nodes)`` or its first index outside ``[0, bits_per_node)``
    (``index_note`` is appended to the latter), and ValueError for a
    node that is not an integer.
    """
    node_ids = np.array([int(v) for v in nodes], dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    outside = (node_ids < 0) | (node_ids >= num_nodes) | (starts < 0) \
        | (starts + count > bits_per_node)
    if outside.any():
        i = int(outside.argmax())
        if not 0 <= node_ids[i] < num_nodes:
            raise ConfigurationError(
                f"node {nodes[i]!r} outside [0, {num_nodes})")
        index = first_outside(int(starts[i]), count, bits_per_node)
        raise ConfigurationError(
            f"bit index {index} outside [0, {bits_per_node}){index_note}")
    return (node_ids * bits_per_node + starts)[:, None] \
        + np.arange(count, dtype=np.int64)


class KWiseSource(RandomSource):
    """Source whose bits are exactly k-wise independent.

    Bit ``index`` of node ``node`` is the low bit of ``p(x)`` where ``p``
    is the seed polynomial and ``x`` is the field point assigned to
    ``(node, index)``. Nodes must be integers in ``[0, num_nodes)`` (use
    :class:`repro.sim.graph.DistributedGraph` node indices).

    Parameters
    ----------
    k:
        Independence parameter; any ``k`` produced bits are jointly uniform.
    num_nodes, bits_per_node:
        Address space: point(node, index) = node * bits_per_node + index.
    seed:
        Integer seed, expanded into polynomial coefficients; or pass
        explicit ``coefficients`` (used by exhaustive-enumeration tests).
    """

    def __init__(self, k: int, num_nodes: int, bits_per_node: int,
                 seed: int = 0, coefficients: Optional[Sequence[int]] = None,
                 bit_budget: Optional[int] = None):
        super().__init__(bit_budget=bit_budget)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if num_nodes < 1 or bits_per_node < 1:
            raise ConfigurationError("num_nodes and bits_per_node must be >= 1")
        self.k = k
        self.num_nodes = num_nodes
        self.bits_per_node = bits_per_node
        num_points = num_nodes * bits_per_node
        self.field = GF2m(min_degree_for(num_points + 1))
        if coefficients is not None:
            if len(coefficients) != k:
                raise ConfigurationError(
                    f"expected {k} coefficients, got {len(coefficients)}"
                )
            self._coeffs = [self.field.element(c) for c in coefficients]
        else:
            self._coeffs = _coefficients_from_seed(seed, k, self.field.m)
        self.seed_bits = k * self.field.m

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        """Every lane's bits from one :meth:`GF2m.eval_poly_vec` call over
        all ``len(nodes) * count`` points."""
        points = address_points(
            nodes, starts, count, self.num_nodes, self.bits_per_node,
            " for a KWiseSource; raise bits_per_node")
        values = self.field.eval_poly_vec(self._coeffs, points.ravel())
        return (values & 1).astype(np.uint8).reshape(points.shape)

    def _stream_limits(self, nodes: List[object]) -> np.ndarray:
        return address_limits(nodes, self.num_nodes, self.bits_per_node)

    @classmethod
    def enumerate_seeds(cls, k: int, num_nodes: int, bits_per_node: int):
        """Yield one source per polynomial in the seed space.

        Only feasible for tiny parameters (the space has ``2^(k*m)``
        polynomials); used by tests that verify *exact* k-wise uniformity
        by complete enumeration.
        """
        field = GF2m(min_degree_for(num_nodes * bits_per_node + 1))
        total = field.order ** k
        for raw in range(total):
            coeffs = []
            x = raw
            for _ in range(k):
                coeffs.append(x % field.order)
                x //= field.order
            yield cls(k, num_nodes, bits_per_node, coefficients=coeffs)
