"""The Section 3 tour: the same problem under four randomness budgets.

Network decomposition is computed four times, each under one of the
paper's randomness regimes, and the exact bit budgets are printed:

* standard model        — unbounded independent private bits;
* Theorem 3.5 regime    — k-wise independent bits (k = Θ(log² n));
* Theorem 3.6 regime    — poly(log n) globally shared bits, CONGEST;
* Theorem 3.1/3.7 regime — one private bit per h-hop neighborhood.

Every regime must give a valid decomposition, and the budgets are
asserted exactly (the runs are deterministic in their seeds).

    python examples/randomness_budget.py
"""

from repro.core.decomposition import (
    elkin_neiman,
    kwise_decomposition,
    measure,
    shared_randomness_decomposition,
    sparse_bits_strong_decomposition,
)
from repro.graphs import assign, make
from repro.randomness import IndependentSource, SparseRandomness


def show(name: str, graph, decomposition, bits: str) -> None:
    quality = measure(graph, decomposition)
    print(f"{name:<28} colors={quality.colors:<3} "
          f"strong_diam={quality.max_strong_diameter:<4} "
          f"valid={quality.valid}  randomness: {bits}")
    assert quality.valid, name


def main() -> None:
    graph = assign(make("grid", 256, seed=3), "random", seed=3)
    print(f"network: {graph}\n")

    # Standard model.
    source = IndependentSource(seed=1)
    dec, report, _ = elkin_neiman(graph, source, finish="singletons")
    show("standard (independent)", graph, dec,
         f"{report.randomness_bits} fully independent private bits")
    assert report.randomness_bits == 1433

    # (B) limited independence — Theorem 3.5.
    dec, report, extra = kwise_decomposition(graph, seed=2, strict=False)
    show(f"k-wise (k={extra['k']})", graph, dec,
         f"seed of {extra['seed_bits']} independent bits expands to "
         f"poly(n) {extra['k']}-wise bits")
    assert extra["seed_bits"] == 1344

    # (C) shared randomness — Theorem 3.6.
    dec, report, extra = shared_randomness_decomposition(
        graph, seed=3, strict=False)
    show("shared (Theorem 3.6)", graph, dec,
         f"{extra['shared_bits_consumed']} shared bits consumed "
         f"({extra['sources_expanded']} k-wise sources), zero private bits")
    assert extra["shared_bits_consumed"] == 22464

    # (A) sparse bits — Theorem 3.7.
    h = 2
    sparse = SparseRandomness.for_graph(graph, h=h, seed=4)
    dec, report, extra = sparse_bits_strong_decomposition(
        graph, sparse, spacing=12, strict=False)
    show(f"sparse (1 bit per {h} hops)", graph, dec,
         f"{sparse.seed_bits} holders with one bit each "
         f"({extra['num_level1_clusters']} gathering clusters)")
    assert sparse.seed_bits == 39


if __name__ == "__main__":
    main()
