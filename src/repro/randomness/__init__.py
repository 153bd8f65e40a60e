"""Randomness substrate: metered, pluggable sources of random bits.

The paper's Section 3 interpolates between deterministic and randomized
algorithms along three axes — bits per neighborhood, independence, and
total shared bits. Each axis is a concrete :class:`RandomSource` here:

================================  ==========================================
Standard model                    :class:`IndependentSource`
(A) one bit per h hops            :class:`SparseRandomness`
(B) k-wise independence           :class:`KWiseSource`
(C) poly(log n) shared bits       :class:`SharedRandomness`
Lemma 3.4 small-bias variant      :class:`EpsilonBiasedSource`
================================  ==========================================

Bit generation is block-oriented (counter-mode PRF blocks, see
:mod:`repro.randomness.block`) and metering is interval-based, so a bulk
read (:meth:`RandomSource.bits_block`) costs O(1) ledger work per
contiguous range while reporting exactly the per-bit counts. A source
implements one generation hook over many nodes at once; every reader,
scalar or per-node bulk (:meth:`RandomSource.uniform_int_each`,
:meth:`RandomSource.geometrics`, :meth:`RandomSource.bits_each`), runs
one skeleton that generates all nodes' bits in one hook call per attempt
and leaves one ledger update per node (see :mod:`.source`).
"""

from .block import BlockStream, IntervalSet, derive_key
from .epsilon_biased import EpsilonBiasedSource, degree_for_bias
from .finite_field import GF2m, inner_product_bits, min_degree_for, supported_degrees
from .independent import IndependentSource
from .kwise import KWiseSource
from .shared import SharedRandomness
from .source import RandomSource, pack_bits
from .sparse import SparseRandomness, covering_holders

__all__ = [
    "BlockStream",
    "EpsilonBiasedSource",
    "GF2m",
    "IndependentSource",
    "IntervalSet",
    "KWiseSource",
    "RandomSource",
    "SharedRandomness",
    "SparseRandomness",
    "covering_holders",
    "degree_for_bias",
    "derive_key",
    "inner_product_bits",
    "min_degree_for",
    "pack_bits",
    "supported_degrees",
]
