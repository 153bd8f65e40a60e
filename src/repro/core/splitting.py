"""The splitting problem (Lemma 3.4, [GKM17]).

Given a bipartite H = (U, V, E) where every u in U has at least
Ω(log^c n) neighbors in V, 2-color V red/blue so that every u sees both
colors. Splitting is P-SLOCAL-complete: a poly(log n)-round deterministic
LOCAL algorithm for it would derandomize everything in P-RLOCAL.

Randomized, it is trivial — *zero rounds*: every V-node outputs its own
random bit. Lemma 3.4's content is that the bits need almost no
randomness behind them:

* fully independent bits work (Chernoff + union bound);
* O(log n)-wise independent bits work ([SSS95] limited-independence
  Chernoff) — so O(log² n) shared seed bits via the [AS04] expansion;
* an ε-biased space works ([NN93] set balancing) — O(log n) shared bits.

This module implements the zero-round algorithm under all four regimes
plus instance generators; experiment E3 sweeps them.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..randomness.epsilon_biased import EpsilonBiasedSource
from ..randomness.independent import IndependentSource
from ..randomness.kwise import KWiseSource
from ..randomness.shared import SharedRandomness
from ..randomness.source import RandomSource
from ..sim.messages import ceil_log2
from ..sim.metrics import RunReport
from ..structures import SplittingInstance


def random_instance(num_u: int, num_v: int, degree: int,
                    seed: int = 0) -> SplittingInstance:
    """Random splitting instance: each U-node picks ``degree`` distinct
    V-neighbors uniformly."""
    if degree > num_v:
        raise ConfigurationError(
            f"degree {degree} exceeds the V side size {num_v}"
        )
    rng = random.Random(seed)
    v_side = list(range(num_v))
    adjacency = {
        u: sorted(rng.sample(v_side, degree))
        for u in range(num_u)
    }
    return SplittingInstance(
        u_side=list(range(num_u)), v_side=v_side,
        adjacency=adjacency, min_degree=degree)


def shared_neighborhood_instance(num_u: int, num_v: int, degree: int,
                                 overlap: float = 0.5,
                                 seed: int = 0) -> SplittingInstance:
    """Adversarial-ish instance: U-nodes share a sliding window of
    V-neighbors, creating the correlations a union bound has to survive."""
    if not 0 <= overlap <= 1:
        raise ConfigurationError("overlap must be in [0, 1]")
    if degree > num_v:
        raise ConfigurationError("degree exceeds V side")
    step = max(1, int(degree * (1 - overlap)))
    adjacency = {}
    for u in range(num_u):
        start = (u * step) % num_v
        adjacency[u] = sorted({(start + j) % num_v for j in range(degree)})
    return SplittingInstance(
        u_side=list(range(num_u)), v_side=list(range(num_v)),
        adjacency=adjacency, min_degree=min(len(a) for a in adjacency.values()))


def split_with_source(instance: SplittingInstance,
                      source: RandomSource) -> Tuple[Dict[int, int], RunReport]:
    """The zero-round algorithm: V-node x outputs bit(x, 0).

    Works with any :class:`RandomSource`; the V-node's index is the
    source key, so k-wise / ε-biased / shared-expansion sources plug in
    unchanged. Every V-node's bit comes from one
    :meth:`~RandomSource.bits_each` call.
    """
    before = source.bits_consumed
    bits = source.bits_each(instance.v_side, 1)[:, 0].tolist()
    coloring = dict(zip(instance.v_side, bits))
    report = RunReport(
        rounds=0,
        model="LOCAL",
        randomness_bits=source.bits_consumed - before,
        notes=["zero-round splitting: each V-node outputs its own bit"],
    )
    return coloring, report


def splits_under_codes(instance: SplittingInstance, codes: np.ndarray,
                       seed_bits: int) -> np.ndarray:
    """Is ``instance`` split when V-node x takes public bit ``x % seed_bits``?

    One verdict per shared string: bit ``i`` of ``codes[j]`` is public
    bit ``i`` of the ``j``-th string (the :func:`exhaustive_derandomize`
    contract). U-node u sees the bits in ``mask_u``, the OR of
    ``1 << (x % seed_bits)`` over its V-neighbors, so it sees both
    colors iff ``codes & mask_u`` is neither 0 nor ``mask_u``. Only the
    bits ``{x % seed_bits : x in V}`` are read — for ``V = range(|V|)``,
    the first ``min(|V|, seed_bits)``.
    """
    masks = np.zeros(len(instance.u_side), dtype=np.int64)
    for i, u in enumerate(instance.u_side):
        for x in instance.adjacency[u]:
            masks[i] |= 1 << (x % seed_bits)
    seen = np.asarray(codes, dtype=np.int64)[:, None] & masks
    return ((seen != 0) & (seen != masks)).all(axis=1)


def make_source(regime: str, instance: SplittingInstance, seed: int = 0,
                k: Optional[int] = None,
                epsilon: Optional[float] = None,
                shared_bits: Optional[int] = None) -> RandomSource:
    """Build the randomness source for one of Lemma 3.4's regimes.

    ========================  =============================================
    ``"independent"``         unbounded private bits (baseline)
    ``"kwise"``               k-wise independent (default k = Θ(log n))
    ``"shared-kwise"``        k-wise bits expanded from a shared seed of
                              O(k log n) bits ([AS04] route)
    ``"epsilon-biased"``      ε-biased space, 2m = O(log(n/ε)) shared bits
                              ([NN93] route)
    ========================  =============================================
    """
    num_points = max(instance.v_side) + 1 if instance.v_side else 1
    n = max(num_points, len(instance.u_side), 2)
    logn = ceil_log2(n)
    if regime == "independent":
        return IndependentSource(seed=seed)
    if regime == "kwise":
        kk = k if k is not None else max(2, 2 * logn)
        return KWiseSource(kk, num_nodes=num_points, bits_per_node=1, seed=seed)
    if regime == "shared-kwise":
        kk = k if k is not None else max(2, 2 * logn)
        probe = KWiseSource(kk, num_nodes=num_points, bits_per_node=1,
                            coefficients=[0] * kk)
        needed = kk * probe.field.m
        bits = shared_bits if shared_bits is not None else needed
        shared = SharedRandomness(bits, seed=seed)
        return shared.expand_kwise(kk, num_points, 1)
    if regime == "epsilon-biased":
        eps = epsilon if epsilon is not None else 1.0 / (4 * n)
        return EpsilonBiasedSource(num_points, 1, eps, seed=seed)
    raise ConfigurationError(f"unknown randomness regime {regime!r}")


def split(instance: SplittingInstance, regime: str = "independent",
          seed: int = 0, **source_kwargs
          ) -> Tuple[Dict[int, int], bool, RunReport, RandomSource]:
    """Run zero-round splitting under a named regime.

    Returns (coloring, success, report, source); ``source.seed_bits``
    is the randomness budget the regime actually carries.
    """
    source = make_source(regime, instance, seed=seed, **source_kwargs)
    coloring, report = split_with_source(instance, source)
    success = instance.is_satisfied(coloring)
    return coloring, success, report, source
