"""Lemma 4.1 end-to-end: turn a randomized algorithm into a deterministic one.

The zero-round splitting algorithm (Lemma 3.4) colored by b shared bits
is a uniform mixture of 2^b deterministic algorithms. Over a *finite*
family of instances, if the mixture's error probability is below
1/|family|, some single seed works everywhere — and enumeration finds
it. This is exactly the argument behind the paper's 2^(-n²) threshold
(there the family is all labeled n-node graphs).

    python examples/derandomize_splitting.py

The search evaluates every seed at once with the bitmask kernel
``splits_under_codes``; the script then replays the good seed through
the plain per-node coloring and asserts it splits every instance.
"""

import functools

from repro.core.derandomization import (
    exhaustive_derandomize,
    family_size_bound,
    seeds_to_failure_curve,
)
from repro.core.splitting import random_instance, splits_under_codes
from repro.randomness import SharedRandomness


def main() -> None:
    seed_bits = 10
    family = [random_instance(num_u=12, num_v=24, degree=8, seed=s)
              for s in range(32)]
    print(f"family: {len(family)} splitting instances; "
          f"seed space: 2^{seed_bits} = {1 << seed_bits} seeds")

    run_all = functools.partial(splits_under_codes, seed_bits=seed_bits)
    result = exhaustive_derandomize(run_all, family, seed_bits)
    curve = seeds_to_failure_curve(result)
    print(f"randomized error probability (measured): "
          f"{result.empirical_error:.3f} "
          f"(threshold for derandomization: {1 / len(family):.3f})")
    print(f"seeds by #failed instances: {curve}")
    print(f"good seed found: {''.join(map(str, result.good_seed))}")
    print("=> hard-wiring this seed IS a deterministic algorithm "
          "for every instance in the family")

    # Replay: the zero-round algorithm, V-node x outputting public bit
    # x % b of the hard-wired string, splits every instance.
    shared = SharedRandomness(seed_bits, explicit_bits=result.good_seed)
    for instance in family:
        coloring = {x: shared.global_bit(x % seed_bits)
                    for x in instance.v_side}
        assert instance.is_satisfied(coloring), "good seed fails to split"
    print(f"replayed the good seed on all {len(family)} instances: split")

    # The paper-scale version of the same numerology: how small must the
    # error be to cover ALL graphs on n nodes? (Lemma 4.1's 2^(-n^2).)
    for n in (10, 100, 1000):
        print(f"n={n:>5}: |G_n| <= 2^{family_size_bound(n):.0f} labeled "
              f"graphs -> need error < 2^-{family_size_bound(n):.0f}")


if __name__ == "__main__":
    main()
