"""repro — a reproduction of Ghaffari & Kuhn (PODC 2019),
"On the Use of Randomness in Local Distributed Graph Algorithms".

The package is organized along the paper's structure:

* :mod:`repro.sim` — the LOCAL / CONGEST / SLOCAL models (Section 2);
* :mod:`repro.randomness` — randomness as a metered resource (Section 3);
* :mod:`repro.core` — the constructions: network decompositions under
  every randomness regime, splitting, conflict-free hypergraph
  multi-coloring, MIS, coloring, sinkless orientation, and the
  derandomization machinery (Sections 3 and 4);
* :mod:`repro.checkers` — local checkability (Definition 2.2);
* :mod:`repro.graphs` — witness graph families and ID schemes;
* :mod:`repro.analysis` — the E1–E11 experiment drivers and tables.

Quickstart::

    from repro.graphs import make, assign
    from repro.randomness import IndependentSource
    from repro.core.decomposition import elkin_neiman

    g = assign(make("gnp-sparse", 200), "random", seed=1)
    dec, report, extra = elkin_neiman(g, IndependentSource(seed=7))
    print(dec.num_colors(), dec.max_strong_diameter(g))
"""

from . import checkers, core, graphs, randomness, sim
from .errors import (
    BandwidthExceeded,
    ConfigurationError,
    DerandomizationFailure,
    InvalidSolution,
    ModelViolation,
    RandomnessExhausted,
    ReproError,
)
from .structures import Decomposition, Hypergraph, SplittingInstance

__version__ = "1.0.0"

__all__ = [
    "BandwidthExceeded",
    "ConfigurationError",
    "Decomposition",
    "DerandomizationFailure",
    "Hypergraph",
    "InvalidSolution",
    "ModelViolation",
    "RandomnessExhausted",
    "ReproError",
    "SplittingInstance",
    "checkers",
    "core",
    "graphs",
    "randomness",
    "sim",
]
