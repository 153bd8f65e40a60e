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
from collections import OrderedDict
from typing import List, Optional

import networkx as nx

from ..errors import ConfigurationError
from ..sim.graph import DistributedGraph, sorted_labels
from .generators import SEED_INVARIANT_FAMILIES, make


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
#: same UIDs. :func:`trial_graph` uses this (with
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


#: Bounds of the :func:`trial_graph` memo: least-recently-used graphs are
#: evicted while it holds more than ``TRIAL_GRAPH_CAP`` graphs or more
#: than ``TRIAL_GRAPH_ARCS`` arcs (2m) in total; the newest graph is
#: always kept, however large. Sized from what the experiment drivers
#: revisit: a quick E1-E11 plus A1-A3 pass reuses a graph at most 70
#: graphs (19,986 arcs) after its last use, and a full pass at most 59
#: graphs (36,450 arcs) within one table. A sweep that never revisits a
#: graph retains at most these bounds of dead graphs: a held graph costs
#: about 50 bytes per arc on 5,000-20,000-node 3-regular graphs and
#: about 27 KB on a 64-node G(n, p), so a few MB either way.
TRIAL_GRAPH_CAP = 128
TRIAL_GRAPH_ARCS = 1 << 17


class _GraphMemo(OrderedDict):
    """key -> DistributedGraph, least recently used first; ``arcs`` is the
    running total of the held graphs' 2m."""

    arcs = 0


#: Process-local memo of :func:`trial_graph`.
_TRIAL_GRAPHS = _GraphMemo()


def trial_graph(family: str, n: int, seed: int = 0, ids: str = "random",
                id_seed: Optional[int] = None) -> DistributedGraph:
    """``assign(make(family, n, seed=seed), ids, seed=id_seed)``, built
    once per process.

    ``id_seed`` defaults to ``seed``. The memo key drops the topology
    seed for :data:`~repro.graphs.generators.SEED_INVARIANT_FAMILIES`
    and the ID seed for :data:`SEED_INVARIANT_SCHEMES`, so every trial
    that would build the same graph shares one build — across seeds,
    scenarios and randomness regimes. Callers share the returned graph
    and must not mutate it (its CSR arrays are read-only; its cached
    neighbor lists are plain lists). Forked pool workers inherit the
    parent's memo and then grow their own.
    """
    if id_seed is None:
        id_seed = seed
    key = (family, n, None if family in SEED_INVARIANT_FAMILIES else seed,
           ids, None if ids in SEED_INVARIANT_SCHEMES else id_seed)
    memo = _TRIAL_GRAPHS
    graph = memo.get(key)
    if graph is not None:
        memo.move_to_end(key)
        return graph
    graph = assign(make(family, n, seed=seed), ids, seed=id_seed)
    memo[key] = graph
    memo.arcs += 2 * graph.m
    while len(memo) > 1 and (len(memo) > TRIAL_GRAPH_CAP
                             or memo.arcs > TRIAL_GRAPH_ARCS):
        memo.arcs -= 2 * memo.popitem(last=False)[1].m
    return graph
