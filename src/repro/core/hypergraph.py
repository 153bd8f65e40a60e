"""Conflict-free hypergraph multi-coloring (Theorem 3.5 machinery).

[GKM17] showed that network decomposition reduces to conflict-free
hypergraph multi-coloring: multi-color the vertices with poly(log n)
colors so every hyperedge has some color held by *exactly one* of its
vertices. They also gave a poly(log n)-round deterministic algorithm for
hyperedges of size at most poly(log n); Theorem 3.5's proof reduces the
general case to that small-edge case by marking vertices with k-wise
independent bits.

This module implements both halves:

* :func:`deterministic_small_edges` — deterministic conflict-free
  multi-coloring for bounded-size hyperedges, via the method of
  conditional expectations (a substitution: this is the same
  potential-function argument as [GKM17]'s distributed algorithm, run
  sequentially). Per size class i (sizes s in [2^(i-1), 2^i)) it runs
  rounds of single-color assignments from a palette of size 4·s², scanning
  vertices and greedily minimizing the expected number of monochromatic
  collisions Σ_e E[C_e]. Since E[C_e] <= s²/(2·4s²) = 1/8 under random
  assignment, each round leaves at most 1/8 of its edges with any
  collision at all; collision-free edges have every color unique and are
  done. O(log m) rounds finish all m edges, using O(s² log m) colors per
  class — poly(log n) for s = poly(log n).

* :func:`mark_and_conquer` — the Theorem 3.5 reduction: edges larger than
  the threshold are subsampled by marking each vertex with probability
  Θ(log n)/2^i using k-wise independent bits, which leaves every large
  edge with Θ(log n) marked vertices w.h.p. (limited-independence
  Chernoff [SSS95]); the deterministic algorithm then colors the marked
  trace. A color unique among marked vertices is unique in the whole
  edge, because unmarked vertices receive no colors of that class.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..randomness.source import RandomSource
from ..structures import Hypergraph, conflict_free_ok


def _collision_count(edge: frozenset, assignment: Dict[int, int]) -> int:
    """Number of same-color pairs inside one edge (full assignment)."""
    counts: Dict[int, int] = {}
    for v in edge:
        c = assignment[v]
        counts[c] = counts.get(c, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def _expected_collisions(edge: frozenset, assignment: Dict[int, int],
                         palette: int) -> float:
    """E[C_e] when unassigned vertices pick uniformly from the palette."""
    fixed: Dict[int, int] = {}
    free = 0
    for v in edge:
        if v in assignment:
            c = assignment[v]
            fixed[c] = fixed.get(c, 0) + 1
        else:
            free += 1
    expected = sum(c * (c - 1) / 2 for c in fixed.values())
    expected += (free * sum(fixed.values())) / palette
    expected += (free * (free - 1) / 2) / palette
    return expected


def deterministic_small_edges(
    hg: Hypergraph,
    max_size: Optional[int] = None,
    tag: object = "small",
) -> Dict[int, Set[Tuple[object, int, int]]]:
    """Deterministic conflict-free multi-coloring, bounded edge sizes.

    Returns vertex -> set of colors; colors are tuples
    ``(tag, round, palette_color)`` so different classes/rounds never
    collide. Raises if an edge exceeds ``max_size``.
    """
    sizes = [len(e) for e in hg.edges]
    if not sizes:
        return {v: set() for v in hg.vertices}
    s_max = max(sizes)
    if max_size is not None and s_max > max_size:
        raise ConfigurationError(
            f"edge of size {s_max} exceeds the small-edge bound {max_size}"
        )
    palette = max(2, 4 * s_max * s_max)
    colors: Dict[int, Set[Tuple[object, int, int]]] = {
        v: set() for v in hg.vertices}
    alive: List[frozenset] = list(hg.edges)
    max_rounds = max(1, 2 * math.ceil(math.log2(len(hg.edges) + 1)) + 2)
    for rnd in range(max_rounds):
        if not alive:
            break
        touched = sorted({v for e in alive for v in e})
        assignment: Dict[int, int] = {}
        for v in touched:
            # Greedy conditional expectations: pick the palette color
            # minimizing Σ_e E[C_e | assignment so far].
            relevant = [e for e in alive if v in e]
            best_color, best_score = 0, None
            for c in range(palette):
                assignment[v] = c
                score = sum(
                    _expected_collisions(e, assignment, palette)
                    for e in relevant
                )
                if best_score is None or score < best_score:
                    best_color, best_score = c, score
            assignment[v] = best_color
        for v, c in assignment.items():
            colors[v].add((tag, rnd, c))
        alive = [e for e in alive if _collision_count(e, assignment) > 0]
    if alive:
        # The 1/8 contraction makes this unreachable for the bounded
        # sizes this function accepts; guard anyway.
        raise ConfigurationError(
            f"{len(alive)} hyperedges still colliding after {max_rounds} rounds"
        )
    return colors


def mark_and_conquer(
    hg: Hypergraph,
    source: RandomSource,
    small_threshold: Optional[int] = None,
    bit_offset: int = 0,
) -> Tuple[Dict[int, Set[Tuple[object, int, int]]], Dict[str, object]]:
    """Theorem 3.5: conflict-free multi-coloring with k-wise marking.

    Size classes up to ``small_threshold`` go straight to the
    deterministic algorithm. For a larger class i, each vertex marks
    itself with probability ~ c·log n / 2^i (consuming ``mark_bits``
    bits per vertex per class from ``source``); the class's edges are
    restricted to marked vertices and handed to the deterministic
    algorithm. Edges whose marked trace came out empty or oversized are
    reported in the stats (the w.h.p. failure event).
    """
    n = max(2, len(hg.vertices))
    logn = max(1, math.ceil(math.log2(n)))
    threshold = small_threshold if small_threshold is not None else 4 * logn
    mark_bits = 12  # probability resolution 2^-12
    weights = np.left_shift(1, np.arange(mark_bits - 1, -1, -1),
                            dtype=np.int64)
    colors: Dict[int, Set[Tuple[object, int, int]]] = {
        v: set() for v in hg.vertices}
    stats: Dict[str, object] = {"classes": {}, "failed_edges": 0}

    offset = bit_offset
    for cls, edges in sorted(hg.classes().items()):
        size_hi = 1 << cls
        class_stats = {"edges": len(edges), "marked_trace_sizes": []}
        if size_hi <= threshold:
            sub = Hypergraph(vertices=hg.vertices, edges=edges)
            sub_colors = deterministic_small_edges(
                sub, max_size=size_hi, tag=("cls", cls))
            for v, cs in sub_colors.items():
                colors[v].update(cs)
            class_stats["mode"] = "deterministic"
        else:
            prob = min(1.0, (4 * logn) / (1 << (cls - 1)))
            threshold_value = math.ceil(prob * (1 << mark_bits))
            touched = sorted({v for e in edges for v in e})
            # Every touched vertex's mark bits in one read, big-endian.
            values = source.bits_each(touched, mark_bits, offset) @ weights
            marked: Set[int] = {
                v for v, value in zip(touched, values.tolist())
                if value < threshold_value}
            traces: List[frozenset] = []
            failed = 0
            cap = max(threshold, 16 * logn)
            for e in edges:
                trace = frozenset(e & marked)
                class_stats["marked_trace_sizes"].append(len(trace))
                if not trace or len(trace) > cap:
                    failed += 1
                    continue
                traces.append(trace)
            if traces:
                sub = Hypergraph(vertices=hg.vertices, edges=traces)
                sub_colors = deterministic_small_edges(
                    sub, max_size=cap, tag=("cls", cls))
                for v, cs in sub_colors.items():
                    colors[v].update(cs)
            stats["failed_edges"] = stats["failed_edges"] + failed
            class_stats["mode"] = "marked"
            class_stats["marked"] = len(marked)
            offset += mark_bits
        stats["classes"][cls] = class_stats
    stats["valid"] = conflict_free_ok(hg, colors)
    stats["total_colors"] = len({c for cs in colors.values() for c in cs})
    return colors, stats
