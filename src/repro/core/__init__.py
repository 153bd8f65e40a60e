"""Core algorithms: the paper's constructions and their consumers."""

from . import decomposition
from .coloring import (
    TrialColoring,
    coloring_via_decomposition,
    is_proper_coloring,
    trial_coloring,
)
from .derandomization import (
    DerandomizationResult,
    exhaustive_derandomize,
    family_size_bound,
    lemma41_error_threshold,
    lie_about_n,
    seeds_to_failure_curve,
    theorem43_deterministic_time,
    theorem46_N,
)
from .hypergraph import deterministic_small_edges, mark_and_conquer
from .linial import ColorReduceCV, log_star, reduce_to_three_colors
from .mis import (
    is_valid_mis,
    luby_mis,
    mis_via_decomposition,
    slocal_greedy_mis,
)
from .ruling_sets import (
    cluster_adjacency,
    greedy_ruling_set,
    ruling_set_via_mis,
    verify_ruling_set,
    voronoi_clusters,
)
from .slocal_reduction import (
    derandomized_coloring,
    derandomized_mis,
    run_slocal_via_decomposition,
)
from .sinkless import (
    SinklessFixupProgram,
    deterministic_orientation,
    is_sinkless,
    randomized_orientation,
    randomized_orientation_engine,
    sinks,
    tree_orientation,
)
from .uniform import UniformRun, run_uniform
from .splitting import (
    make_source,
    random_instance,
    shared_neighborhood_instance,
    split,
    split_with_source,
    splits_under_codes,
)

__all__ = [
    "ColorReduceCV",
    "DerandomizationResult",
    "log_star",
    "reduce_to_three_colors",
    "TrialColoring",
    "cluster_adjacency",
    "coloring_via_decomposition",
    "decomposition",
    "deterministic_orientation",
    "deterministic_small_edges",
    "exhaustive_derandomize",
    "family_size_bound",
    "greedy_ruling_set",
    "is_proper_coloring",
    "is_sinkless",
    "is_valid_mis",
    "lemma41_error_threshold",
    "lie_about_n",
    "luby_mis",
    "make_source",
    "mark_and_conquer",
    "mis_via_decomposition",
    "derandomized_coloring",
    "derandomized_mis",
    "random_instance",
    "randomized_orientation",
    "randomized_orientation_engine",
    "SinklessFixupProgram",
    "run_slocal_via_decomposition",
    "ruling_set_via_mis",
    "run_uniform",
    "tree_orientation",
    "UniformRun",
    "seeds_to_failure_curve",
    "shared_neighborhood_instance",
    "sinks",
    "slocal_greedy_mis",
    "split",
    "split_with_source",
    "splits_under_codes",
    "theorem43_deterministic_time",
    "theorem46_N",
    "verify_ruling_set",
    "voronoi_clusters",
]
