"""Importable test helpers (not fixtures).

``conftest.py`` cannot be imported by test modules when ``tests/`` is not
a package (pytest loads it under a synthetic module name), so shared
*plain functions* live here instead. pytest inserts each test file's
directory on ``sys.path`` (rootdir import mode), which makes a bare
``from helpers import family_graphs`` work from every test module.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

from repro.graphs import assign, make
from repro.randomness import SharedRandomness
from repro.sim.batch.array import ArrayContext
from repro.sim.graph import DistributedGraph

#: The named families every cross-topology test sweeps over.
FAMILY_NAMES = ("path", "cycle", "grid", "gnp-sparse", "gnp-dense",
                "tree", "cliques")


def family_graphs(n: int = 40, seed: int = 1) -> Iterator[Tuple[str, DistributedGraph]]:
    """All named families at size ~n (module-level helper, not a fixture)."""
    for name in FAMILY_NAMES:
        yield name, assign(make(name, n, seed=seed), "random", seed=seed)


def per_seed_oracle(run: Callable[[object, SharedRandomness], bool],
                    seed_bits: int) -> Callable[[object, np.ndarray], np.ndarray]:
    """Lift a scalar ``run(instance, shared) -> bool`` into the batched
    ``run_all(instance, codes) -> bool[k]`` contract of
    ``exhaustive_derandomize``.

    One ``SharedRandomness(explicit_bits=...)`` per code, bit ``i`` of
    the code as public bit ``i``; the objects of the last ``codes``
    block are reused across instances, as a per-seed walk would.
    """
    block = {"codes": None, "shared": []}

    def run_all(instance, codes):
        key = np.asarray(codes, dtype=np.int64).tobytes()
        if block["codes"] != key:
            block["codes"] = key
            block["shared"] = [
                SharedRandomness(seed_bits, explicit_bits=[
                    (int(code) >> i) & 1 for i in range(seed_bits)])
                for code in codes
            ]
        return np.array([run(instance, shared) for shared in block["shared"]],
                        dtype=bool)
    return run_all


def count_frontier_calls(patch) -> list:
    """Count ``ArrayContext._frontier_arcs`` calls, i.e. how often an op
    took the frontier branch, into a one-item list; ``patch`` is a
    pytest ``MonkeyPatch``."""
    calls = [0]
    real = ArrayContext._frontier_arcs

    def counted(self, senders):
        calls[0] += 1
        return real(self, senders)

    patch.setattr(ArrayContext, "_frontier_arcs", counted)
    return calls
