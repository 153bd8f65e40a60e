"""Derandomization tools: Lemma 4.1, Theorem 4.3, Theorem 4.6.

Three executable pieces:

* :func:`exhaustive_derandomize` — Lemma 4.1 made concrete. A randomized
  algorithm with shared seed space {0,1}^b is a uniform choice among 2^b
  deterministic algorithms; if its failure probability is below
  1/|family|, some single seed must succeed on *every* instance of the
  family, and we find it by enumeration. (The lemma's 2^(-n²) threshold
  is exactly 1/|G_n| for the family of all labeled n-node graphs.)

* :func:`lie_about_n` — the [CKP16] technique behind Theorems 4.3/4.6:
  run a non-uniform algorithm telling it the network has N >= n nodes.
  Definition 2.1 makes its guarantee hold *at size N* — error δ(N) — on
  our n-node graph, buying error reduction at the price of T(N) rounds.

* closed-form threshold calculators (:func:`family_size_bound`,
  :func:`theorem43_deterministic_time`, :func:`theorem46_N`) used by the
  EXPERIMENTS tables to compare measured values against the paper's
  expressions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, DerandomizationFailure
from ..sim.graph import DistributedGraph
from ..sim.metrics import RunReport


@dataclasses.dataclass
class DerandomizationResult:
    """Outcome of an exhaustive seed search (Lemma 4.1)."""

    seed_bits: int
    good_seed: List[int]              # the bit string that always works
    seeds_tried: int
    per_seed_failures: List[int]      # instances failed, per seed
    instances: int

    @property
    def empirical_error(self) -> float:
        """Average failure probability of the randomized algorithm.

        Exact only for a full search. Under ``stop_early`` each entry
        of ``per_seed_failures`` is a 0/1 flag (the seed failed on some
        instance) and the search stops at the first good seed, so this
        is a lower bound.
        """
        total = self.seeds_tried * self.instances
        return sum(self.per_seed_failures) / total if total else 0.0


#: Seeds evaluated per predicate call; bounds the search's temporaries
#: for every allowed ``seed_bits``.
SEED_CHUNK = 1 << 16


def exhaustive_derandomize(
    run_all: Callable[[object, np.ndarray], np.ndarray],
    instances: Sequence[object],
    seed_bits: int,
    stop_early: bool = False,
) -> DerandomizationResult:
    """Find a shared seed on which the algorithm succeeds for every instance.

    ``run_all(instance, codes) -> bool[k]`` evaluates the algorithm on
    one instance under ``k`` shared strings at once: bit ``i`` of
    ``codes[j]`` (an ``int64``) is public bit ``i`` of the ``j``-th
    string. It must be deterministic given the shared string (the
    w.l.o.g. normal form of the Lemma 4.1 proof). Seeds are tried in
    code order ``0 .. 2^b - 1``, in chunks of :data:`SEED_CHUNK`.

    ``per_seed_failures[code]`` counts the instances that seed fails.
    With ``stop_early`` it is a 0/1 flag per seed instead, and the
    search stops at the first good seed, so ``seeds_tried`` and the
    list end there and ``empirical_error`` is only a lower bound.

    Raises :class:`DerandomizationFailure` if every seed fails somewhere
    — i.e. if the algorithm's error probability is >= 1/|instances| and
    the lemma's premise does not hold for this family.
    """
    if seed_bits < 1 or seed_bits > 24:
        raise ConfigurationError(
            f"seed_bits must be in [1, 24] for enumeration, got {seed_bits}"
        )
    if not instances:
        raise ConfigurationError("at least one instance is required")
    space = 1 << seed_bits
    failures = np.zeros(space, dtype=np.int64)
    good: Optional[int] = None
    tried = space
    for start in range(0, space, SEED_CHUNK):
        codes = np.arange(start, min(start + SEED_CHUNK, space),
                          dtype=np.int64)
        counts = failures[start:start + codes.size]
        for instance in instances:
            counts += ~np.asarray(run_all(instance, codes), dtype=bool)
        if stop_early:
            np.minimum(counts, 1, out=counts)
        if good is None:
            zero = np.flatnonzero(counts == 0)
            if zero.size:
                good = start + int(zero[0])
                if stop_early:
                    tried = good + 1
                    break
    if good is None:
        raise DerandomizationFailure(
            f"no seed of {seed_bits} bits succeeds on all "
            f"{len(instances)} instances; best seed fails "
            f"{int(failures.min())} of them"
        )
    return DerandomizationResult(
        seed_bits=seed_bits,
        good_seed=[(good >> i) & 1 for i in range(seed_bits)],
        seeds_tried=tried, per_seed_failures=failures[:tried].tolist(),
        instances=len(instances))


def lie_about_n(
    algorithm: Callable[[DistributedGraph, int, int], Tuple[bool, RunReport]],
    graph: DistributedGraph,
    claimed_n: int,
    seed: int = 0,
) -> Tuple[bool, RunReport]:
    """Run a non-uniform algorithm pretending the graph has N nodes.

    ``algorithm(graph, claimed_n, seed) -> (success, report)`` receives
    the claimed size and must parametrize itself (phase counts, caps,
    palettes...) by it, exactly as a non-uniform algorithm handed N as
    its input would. The graph itself is untouched — the nodes simply
    cannot tell (the [CKP16] indistinguishability).
    """
    if claimed_n < graph.n:
        raise ConfigurationError(
            f"claimed n ({claimed_n}) must be >= the true n ({graph.n})"
        )
    return algorithm(graph, claimed_n, seed)


# ----------------------------------------------------------------------
# Closed forms from the paper, for the experiment tables.
# ----------------------------------------------------------------------
def family_size_bound(n: int, c: int = 3) -> float:
    """log2 |G_n|: labeled graphs with <= n nodes, IDs from {1..n^c}.

    The Lemma 4.1 proof bounds |G_n| <= n * 2^C(n,2) * n^(c n) < 2^(n²)
    for large n; we return the exact log2 of the middle expression.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return math.log2(n) + n * (n - 1) / 2 + c * n * math.log2(n)


def lemma41_error_threshold(n: int, c: int = 3) -> float:
    """log2 of the error probability below which Lemma 4.1 derandomizes."""
    return -family_size_bound(n, c)


def theorem43_deterministic_time(n: int, beta: float, c: float = 1.0) -> float:
    """The 2^(O(log^(1/β) n)) deterministic time of Theorem 4.3 (log2)."""
    if beta <= 2:
        raise ConfigurationError("Theorem 4.3 needs beta > 2")
    return c * (math.log2(max(2, n)) ** (1.0 / beta))


def theorem46_N(n: int, epsilon: float) -> float:
    """The virtual size N with 2^(log^ε N) >= n² (log2 N returned).

    Theorem 4.6 lies that the graph has N nodes so that the assumed
    success bound 1 - 2^(-2^(log^ε N)) beats the 2^(-n²) of Lemma 4.1:
    log N >= (2 log n)^(1/ε), still polylog-friendly since any polylog(N)
    running time is polylog(n)^(1/ε) = polylog(n).
    """
    if not 0 < epsilon <= 1:
        raise ConfigurationError("epsilon must be in (0, 1]")
    return (2 * math.log2(max(2, n))) ** (1.0 / epsilon)


def seeds_to_failure_curve(result: DerandomizationResult) -> Dict[int, int]:
    """Histogram: number of failed instances -> count of seeds.

    The Lemma 4.1 picture in one table: mass at 0 == derandomizable.
    """
    histogram: Dict[int, int] = {}
    for failures in result.per_seed_failures:
        histogram[failures] = histogram.get(failures, 0) + 1
    return dict(sorted(histogram.items()))
