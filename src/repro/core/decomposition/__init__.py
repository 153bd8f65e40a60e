"""Network decomposition algorithms — the paper's complete problem.

============================  ==========================================
Randomized baseline [EN16]    :func:`elkin_neiman`
Deterministic baseline        :func:`deterministic_decomposition`
Theorem 3.1 (sparse bits)     :func:`sparse_bits_decomposition`
Theorem 3.5 (k-wise)          :func:`kwise_decomposition`
Theorem 3.6 (shared, CONGEST) :func:`shared_randomness_decomposition`
Theorem 3.7 (sparse, strong)  :func:`sparse_bits_strong_decomposition`
Theorem 4.2 (shattering)      :func:`shattering_decomposition`
============================  ==========================================

Every randomized row runs the one loop :func:`carve` and numbers its
clusters with :func:`assemble`, which returns the color-normalized
:class:`~repro.structures.Decomposition`; only the randomness differs.
Theorems 3.6 and 3.7 are one construction,
:func:`phase_epoch_decomposition`, reading one shared string per owner
(the global string, or each gathering cluster's pool).
:func:`elkin_neiman_batch` runs many Elkin–Neiman trials as one
:func:`carve` over their graphs' disjoint union.
:func:`~.elkin_neiman.split_reads` is the one per-owner read split
behind both.
"""

from .deterministic import (
    ball_carving,
    deterministic_decomposition,
    improve_decomposition,
)
from .elkin_neiman import (
    assemble,
    carve,
    default_cap,
    default_phases,
    elkin_neiman,
    elkin_neiman_batch,
    top_two_flood,
)
from .kwise_local import kwise_decomposition, kwise_source
from .quality import DecompositionQuality, measure
from .shared_congest import (
    phase_epoch_decomposition,
    shared_bits_needed,
    shared_randomness_decomposition,
)
from .shattering import (
    shattering_decomposition,
    target_K,
    theoretical_failure_bound,
)
from .sparse_bits import (
    GatheredBits,
    gather_bits,
    sparse_bits_decomposition,
    sparse_bits_strong_decomposition,
)

__all__ = [
    "DecompositionQuality",
    "GatheredBits",
    "assemble",
    "ball_carving",
    "carve",
    "default_cap",
    "default_phases",
    "deterministic_decomposition",
    "elkin_neiman",
    "elkin_neiman_batch",
    "gather_bits",
    "improve_decomposition",
    "kwise_decomposition",
    "kwise_source",
    "measure",
    "phase_epoch_decomposition",
    "shared_bits_needed",
    "shared_randomness_decomposition",
    "shattering_decomposition",
    "sparse_bits_decomposition",
    "sparse_bits_strong_decomposition",
    "target_K",
    "theoretical_failure_bound",
    "top_two_flood",
]
