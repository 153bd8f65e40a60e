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


def reference_top_two_flood(
    offsets: np.ndarray,
    indices: np.ndarray,
    live: np.ndarray,
    radii: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """The lexsort top-two flood :func:`repro.core.decomposition.top_two_flood`
    replaced, kept verbatim as its oracle: best value per (receiver,
    center) by one ``lexsort``, then the best two centers per receiver
    by another. Same contract and return values."""
    n = len(radii)
    nodes = np.arange(n)
    src = np.repeat(nodes, np.diff(offsets))
    keep = live[src] & live[indices]
    src, dst = src[keep], indices[keep]
    m1 = np.where(live & (radii > 0), radii, -1)
    c1 = np.where(m1 >= 0, nodes, -1)
    m2 = np.full(n, -1, dtype=np.int64)
    c2 = np.full(n, -1, dtype=np.int64)
    senders = m1 > 0
    rounds = messages = 0
    while True:
        out = senders[src]
        if not out.any():
            break
        rounds += 1
        messages += int(np.count_nonzero(out))
        es, ed = src[out], dst[out]
        two = m2[es] > 0
        hit = np.zeros(n, dtype=bool)
        hit[ed] = True
        receivers = np.flatnonzero(hit)
        mine1 = receivers[c1[receivers] >= 0]
        mine2 = receivers[c2[receivers] >= 0]
        at = np.concatenate((ed, ed[two], mine1, mine2))
        value = np.concatenate((m1[es] - 1, m2[es][two] - 1, m1[mine1], m2[mine2]))
        center = np.concatenate((c1[es], c2[es][two], c1[mine1], c2[mine2]))
        # Best value per (receiver, center) ...
        order = np.lexsort((-value, center, at))
        at, value, center = at[order], value[order], center[order]
        first = np.ones(len(at), dtype=bool)
        first[1:] = (at[1:] != at[:-1]) | (center[1:] != center[:-1])
        at, value, center = at[first], value[first], center[first]
        # ... then the best two centers per receiver.
        order = np.lexsort((center, -value, at))
        at, value, center = at[order], value[order], center[order]
        head = np.ones(len(at), dtype=bool)
        head[1:] = at[1:] != at[:-1]
        second = np.zeros(len(at), dtype=bool)
        second[1:] = head[:-1] & ~head[1:]
        r = receivers
        was1, was_c1, was2, was_c2 = m1[r], c1[r], m2[r], c2[r]
        m1[at[head]], c1[at[head]] = value[head], center[head]
        m2[r], c2[r] = -1, -1
        m2[at[second]], c2[at[second]] = value[second], center[second]
        # A positive pair is only ever displaced by another positive
        # pair, so "a slot now holds a new positive pair" is exactly
        # "the pairs worth forwarding changed".
        senders = np.zeros(n, dtype=bool)
        senders[r] = (((m1[r] > 0) & ((m1[r] != was1) | (c1[r] != was_c1)))
                      | ((m2[r] > 0) & ((m2[r] != was2) | (c2[r] != was_c2))))
    return m1, c1, np.maximum(m2, 0), rounds, messages
