"""Sparse randomness: one private bit per poly(log n)-hop neighborhood.

Direction (A) of Section 3 (Theorems 3.1 and 3.7): only a subset
``S ⊆ V`` of nodes hold randomness — a *single* independent bit each —
and every node has some holder within ``h`` hops. This module provides

* :class:`SparseRandomness` — the source: bits exist only at holders;
  any other access raises, so an algorithm provably uses nothing else;
* :func:`covering_holders` — builds a valid holder set for a graph and
  radius ``h`` (a maximal independent-at-distance set, giving covering
  radius <= h while keeping holders sparse, the regime the theorems are
  interesting in).

The paper's premise is that *each holder has one bit*. Algorithms that
need several bits per region must gather bits from many holders —
that is exactly what Lemma 3.2's clustering does, and why the
:meth:`holder_bit` API is deliberately minimal.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set

import numpy as np

from ..errors import ConfigurationError, ModelViolation
from .source import RandomSource, first_outside

if TYPE_CHECKING:
    from ..sim.graph import DistributedGraph


def covering_holders(graph: "DistributedGraph", h: int, *, seed: int = 0,
                     style: str = "sparse") -> Set[int]:
    """Choose a holder set with covering radius at most ``h``.

    ``style='sparse'`` greedily builds a set that is ``h``-independent
    (pairwise distance > h) and maximal, hence dominating at radius
    ``h`` — the hardest legal regime for Theorem 3.1 since holders are as
    far apart as allowed. ``style='dense'`` returns all nodes (the
    standard model, h = 0). The greedy order is seeded for
    reproducibility. Holders are node indices of ``graph``.
    """
    if h < 0:
        raise ConfigurationError(f"h must be >= 0, got {h}")
    if style == "dense" or h == 0:
        return set(graph.nodes())
    if style != "sparse":
        raise ConfigurationError(f"unknown style {style!r}")

    def sort_key(v: int) -> int:
        digest = hashlib.sha256(f"holders:{seed}:{v!r}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    from ..sim.batch.csr import bfs_distances

    holders: Set[int] = set()
    covered = np.zeros(graph.n, dtype=bool)
    for v in sorted(graph.nodes(), key=sort_key):
        if covered[v]:
            continue
        holders.add(v)
        # Mark the h-ball of v as covered.
        covered |= bfs_distances(graph.csr.offsets, graph.csr.indices, v,
                                 cutoff=h) >= 0
    return holders


class SparseRandomness(RandomSource):
    """One independent private bit per holder node; nothing anywhere else.

    Accessing a bit of a non-holder node, or a second bit of a holder,
    raises :class:`ModelViolation` — the source *is* the model assumption.

    Parameters
    ----------
    holders:
        The node set S holding one bit each.
    h:
        The promised covering radius (recorded for reports; validation
        against an actual graph is ``verify_covering``).
    seed:
        Determines the holders' bits reproducibly.
    """

    def __init__(self, holders: Iterable, h: int, seed: int = 0):
        super().__init__(bit_budget=None)
        self.holders: Set = set(holders)
        if not self.holders:
            raise ConfigurationError("holder set must be non-empty")
        self.h = h
        self.seed = seed
        self.seed_bits = len(self.holders)
        self._values: Dict[object, int] = {}
        for v in self.holders:
            digest = hashlib.sha256(f"sparse-bit:{seed}:{v!r}".encode()).digest()
            self._values[v] = digest[0] & 1

    def _raw_bits(self, nodes: Sequence[object], starts: np.ndarray,
                  count: int) -> np.ndarray:
        out = np.empty((len(nodes), count), dtype=np.uint8)
        for row, (node, start) in enumerate(zip(nodes, np.asarray(
                starts).tolist())):
            if node not in self.holders:
                raise ModelViolation(
                    f"node {node!r} holds no randomness (not in S); "
                    f"sparse model allows bits only at holders"
                )
            index = first_outside(start, count, 1)
            if index is not None:
                raise ModelViolation(
                    f"holder {node!r} has a single bit; "
                    f"index {index} requested"
                )
            out[row] = self._values[node]
        return out

    def _stream_limits(self, nodes: List[object]) -> np.ndarray:
        holders = self.holders
        return np.array([v in holders for v in nodes], dtype=np.int64)

    def holder_bit(self, node: object) -> int:
        """The single bit of a holder node."""
        return self.bit(node, 0)

    def verify_covering(self, graph: "DistributedGraph") -> bool:
        """Check every node has a holder within ``h`` hops (the premise):
        one multi-source BFS from the holders that are nodes of
        ``graph``."""
        from ..sim.batch.csr import bfs_distances

        sources = [s for s in self.holders if s in graph.nodes()]
        if not sources:
            return False
        return bool(np.all(bfs_distances(graph.csr.offsets,
                                         graph.csr.indices, sources,
                                         cutoff=self.h) >= 0))

    @classmethod
    def for_graph(cls, graph: "DistributedGraph", h: int, seed: int = 0,
                  style: str = "sparse") -> "SparseRandomness":
        """Construct holders for a
        :class:`~repro.sim.graph.DistributedGraph` and wrap them."""
        holders = covering_holders(graph, h, seed=seed, style=style)
        return cls(holders, h, seed=seed)
