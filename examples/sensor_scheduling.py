"""Domain scenario: interference-free scheduling in a sensor grid.

The intro's motivation for symmetry breaking, played out: a field of
sensors on a grid (with a few long-range links) must agree on
transmission slots so that no two neighbors transmit together — a
(Δ+1)-coloring — and elect a minimal set of cluster heads covering
everyone — an MIS. Both are derived from one network decomposition,
computed under the *sparse randomness* regime of Theorem 3.1: only a
small subset of sensors has a hardware RNG (one bit each), everyone else
is deterministic.

    python examples/sensor_scheduling.py
"""

import random

from repro.checkers import ColoringChecker, MISChecker
from repro.core.coloring import coloring_via_decomposition, is_proper_coloring
from repro.core.mis import is_valid_mis, mis_via_decomposition
from repro.core.decomposition import sparse_bits_strong_decomposition
from repro.graphs import assign, grid
from repro.randomness import SparseRandomness
from repro.sim.graph import EdgeList


def build_field(rows: int, cols: int, long_links: int, seed: int) -> EdgeList:
    """Grid of sensors plus a few random long-range links."""
    field = grid(rows, cols)
    edges = field.edges.tolist()
    linked = {frozenset(e) for e in edges}
    rng = random.Random(seed)
    nodes = list(range(field.n))
    for _ in range(long_links):
        link = rng.sample(nodes, 2)
        if frozenset(link) not in linked:
            linked.add(frozenset(link))
            edges.append(link)
    return EdgeList(field.n, edges)


def main() -> None:
    field = build_field(rows=16, cols=16, long_links=10, seed=5)
    graph = assign(field, "random", seed=5)
    print(f"sensor field: {graph}")

    # Only some sensors have an RNG: one bit each, every sensor within
    # h=2 hops of one (the Theorem 3.1 premise).
    rng_nodes = SparseRandomness.for_graph(graph, h=2, seed=9)
    print(f"hardware RNGs: {len(rng_nodes.holders)} sensors "
          f"({len(rng_nodes.holders) / graph.n:.0%}), one bit each")

    decomposition, report, extra = sparse_bits_strong_decomposition(
        graph, rng_nodes, spacing=12, strict=False)
    print(f"decomposition: {decomposition.num_colors()} colors, "
          f"strong diameter {decomposition.max_strong_diameter(graph)}, "
          f"~{report.rounds} accounted rounds")

    # Transmission slots: proper coloring -> TDMA schedule.
    slots, _ = coloring_via_decomposition(graph, decomposition)
    num_slots = max(slots.values()) + 1
    delta = graph.max_degree()
    assert is_proper_coloring(graph, slots, delta + 1)
    assert ColoringChecker(delta + 1).check(graph, slots).ok
    print(f"TDMA schedule: {num_slots} slots for max degree {delta} "
          f"(bound {delta + 1}); no neighboring sensors share a slot")

    # Cluster heads: MIS -> every sensor is a head or hears one.
    heads, _ = mis_via_decomposition(graph, decomposition)
    assert is_valid_mis(graph, heads)
    assert MISChecker().check(graph, heads).ok
    print(f"cluster heads: {sum(heads.values())} elected; "
          f"every sensor adjacent to a head or is one")


if __name__ == "__main__":
    main()
