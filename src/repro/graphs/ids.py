"""Identifier assignment schemes.

The model gives every node a unique Θ(log n)-bit identifier (Section 2).
How those identifiers are arranged matters for deterministic algorithms
(which can only break symmetry through IDs) and for the Lemma 4.1
derandomization, whose union bound runs over all labeled graphs with IDs
from {1, ..., n^c}. This module provides the assignment styles the
experiments sweep over.
"""

from __future__ import annotations

import random
from typing import List

import networkx as nx

from ..errors import ConfigurationError
from ..sim.graph import DistributedGraph, sorted_labels


def random_ids(graph: nx.Graph, seed: int = 0, c: int = 3) -> DistributedGraph:
    """Uniformly random distinct IDs from {1, ..., n^c} (the default)."""
    if c < 1:
        raise ConfigurationError("c must be >= 1")
    n = graph.number_of_nodes()
    return DistributedGraph(graph, uid_seed=seed, uid_range=max(8, n ** c))


def sequential_ids(graph: nx.Graph) -> DistributedGraph:
    """IDs 1..n in node order — the friendliest assignment."""
    n = graph.number_of_nodes()
    return DistributedGraph(graph, uids=list(range(1, n + 1)))


def adversarial_path_ids(graph: nx.Graph) -> DistributedGraph:
    """IDs increasing along a BFS order — adversarial for greedy-by-ID.

    Greedy/sequential algorithms that process nodes in ID order degrade
    to a long sequential chain on such assignments; useful for showing
    why ID-based symmetry breaking costs locality.
    """
    labels = sorted_labels(graph.nodes())
    order = list(nx.bfs_tree(graph, labels[0]).nodes())
    reached = set(order)
    order.extend(v for v in labels if v not in reached)
    uid_of = {v: i + 1 for i, v in enumerate(order)}
    return DistributedGraph(graph, uids=[uid_of[v] for v in labels])


def spread_ids(graph: nx.Graph, seed: int = 0) -> DistributedGraph:
    """Large, well-separated IDs (multiples of a step, shuffled).

    Exercises the Θ(log n)-bit width assumption: all IDs have roughly
    the same bit length, so bit-by-bit symmetry breaking gets no shortcut
    from length differences.
    """
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    step = max(2, n)
    base = step * step  # all IDs land in [n^2, 2n^2): equal bit length
    uids: List[int] = [base + step * i + rng.randrange(step // 2)
                       for i in range(n)]
    rng.shuffle(uids)
    return DistributedGraph(graph, uids=uids, uid_range=2 * base)


SCHEMES = {
    "random": random_ids,
    "sequential": lambda g, seed=0: sequential_ids(g),
    "adversarial": lambda g, seed=0: adversarial_path_ids(g),
    "spread": spread_ids,
}

#: Schemes whose assignment ignores ``seed`` — every seed yields the
#: same UIDs. Sweep machinery uses this (with
#: :data:`repro.graphs.generators.SEED_INVARIANT_FAMILIES`) to
#: deduplicate graph builds across seeds.
SEED_INVARIANT_SCHEMES = frozenset({"sequential", "adversarial"})


def assign(graph: nx.Graph, scheme: str = "random", seed: int = 0) -> DistributedGraph:
    """Wrap a graph with the named ID scheme."""
    if scheme not in SCHEMES:
        raise ConfigurationError(
            f"unknown ID scheme {scheme!r}; choose from {sorted(SCHEMES)}"
        )
    return SCHEMES[scheme](graph, seed=seed)
