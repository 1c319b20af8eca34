"""Core symmetric-locality theory: permutations, Bruhat order, reuse distance, ChainFind.

This subpackage contains the paper's primary contribution.  The most common
entry points are re-exported here:

* :class:`Permutation` and the inversion-counting helpers,
* the Bruhat order and covering graph,
* :func:`cache_hit_vector`, :func:`miss_ratio_curve` and the theorem checks,
* :func:`chain_find` with the edge labelings of Section V,
* Theorem-4 scheduling and feasibility-constrained optimisation,
* the Mahonian / integer-partition analyses of the appendix.

Examples
--------
Inversions measure locality (Theorem 2): the truncated sum of the hit
vector equals the inversion number.

>>> from repro.core import Permutation, cache_hit_vector, count_inversions
>>> sigma = Permutation([2, 0, 3, 1])
>>> int(count_inversions(sigma))
3
>>> sum(int(h) for h in cache_hit_vector(sigma)[:-1])
3
"""

from .permutation import (
    Permutation,
    adjacent_transposition,
    all_permutations,
    permutations_by_inversions,
    random_permutation,
    transposition,
)
from .inversions import (
    count_inversions,
    inversion_vector,
    left_inversion_counts,
    max_inversions,
)
from .bruhat import (
    bruhat_leq,
    bruhat_less,
    cocovers,
    covering_transpositions,
    covers,
    interval,
    is_covering,
    weak_covers,
    weak_order_leq,
)
from .covering_graph import (
    build_covering_graph,
    count_maximal_chains,
    is_graded,
    random_saturated_chain,
    rank_levels,
    rank_sizes,
    saturated_chains,
)
from .hits import (
    LocalityProfile,
    algorithm1_paper,
    cache_hit_vector,
    corollary1_deficit,
    hits,
    locality_profile,
    miss_ratio,
    miss_ratio_curve,
    reuse_distance_histogram,
    reuse_distances,
    stack_distances,
    theorem2_deficit,
    theorem3_compare,
    total_reuse,
)
from .labelings import (
    CompositeLabeling,
    EdgeLabeling,
    MissRatioLabeling,
    RandomTiebreakLabeling,
    RankedMissRatioLabeling,
    TransposedLabeling,
    chain_labels_nondecreasing,
    count_nondecreasing_chains,
    is_el_labeling,
    is_good_labeling,
)
from .chainfind import ChainFindResult, chain_find, chain_hit_matrix, count_tie_events
from .timescale import (
    DataMovementLabeling,
    TimescaleLabeling,
    TotalReuseLabeling,
    compare_labelings,
)
from .optimal import (
    alternating_schedule,
    best_reordering,
    matrix_traversal_costs,
    naive_schedule_total_reuse,
    optimal_reordering,
    schedule_total_reuse,
    schedule_trace,
)
from .feasibility import (
    DependencyDAG,
    best_feasible_extension,
    count_linear_extensions,
    feasibility_predicate,
    greedy_feasible_extension,
    is_feasible,
    random_linear_extension,
)
from .mahonian import (
    hit_vector_partition,
    integer_partitions,
    mahonian_number,
    mahonian_row,
    mahonian_triangle,
    partition_counts_at_level,
    partitions_at_level,
    permutations_with_inversions,
    random_permutation_with_inversions,
    truncated_miss_integral,
    truncated_miss_integral_by_level,
)

__all__ = [
    # permutation
    "Permutation",
    "adjacent_transposition",
    "all_permutations",
    "permutations_by_inversions",
    "random_permutation",
    "transposition",
    # inversions
    "count_inversions",
    "inversion_vector",
    "left_inversion_counts",
    "max_inversions",
    # bruhat
    "bruhat_leq",
    "bruhat_less",
    "cocovers",
    "covering_transpositions",
    "covers",
    "interval",
    "is_covering",
    "weak_covers",
    "weak_order_leq",
    # covering graph
    "build_covering_graph",
    "count_maximal_chains",
    "is_graded",
    "random_saturated_chain",
    "rank_levels",
    "rank_sizes",
    "saturated_chains",
    # hits
    "LocalityProfile",
    "algorithm1_paper",
    "cache_hit_vector",
    "corollary1_deficit",
    "hits",
    "locality_profile",
    "miss_ratio",
    "miss_ratio_curve",
    "reuse_distance_histogram",
    "reuse_distances",
    "stack_distances",
    "theorem2_deficit",
    "theorem3_compare",
    "total_reuse",
    # labelings
    "CompositeLabeling",
    "EdgeLabeling",
    "MissRatioLabeling",
    "RandomTiebreakLabeling",
    "RankedMissRatioLabeling",
    "TransposedLabeling",
    "chain_labels_nondecreasing",
    "count_nondecreasing_chains",
    "is_el_labeling",
    "is_good_labeling",
    # chainfind
    "ChainFindResult",
    "chain_find",
    "chain_hit_matrix",
    "count_tie_events",
    # timescale / alternative labelings
    "DataMovementLabeling",
    "TimescaleLabeling",
    "TotalReuseLabeling",
    "compare_labelings",
    # optimal
    "alternating_schedule",
    "best_reordering",
    "matrix_traversal_costs",
    "naive_schedule_total_reuse",
    "optimal_reordering",
    "schedule_total_reuse",
    "schedule_trace",
    # feasibility
    "DependencyDAG",
    "best_feasible_extension",
    "count_linear_extensions",
    "feasibility_predicate",
    "greedy_feasible_extension",
    "is_feasible",
    "random_linear_extension",
    # mahonian
    "hit_vector_partition",
    "integer_partitions",
    "mahonian_number",
    "mahonian_row",
    "mahonian_triangle",
    "partition_counts_at_level",
    "partitions_at_level",
    "permutations_with_inversions",
    "random_permutation_with_inversions",
    "truncated_miss_integral",
    "truncated_miss_integral_by_level",
]
