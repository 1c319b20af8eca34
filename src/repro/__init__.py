"""repro — a reproduction of *Symmetric Locality: Definition and Initial Results*.

The package implements the paper's theory of the locality of data
re-traversals indexed by the symmetric group, together with every substrate
needed to evaluate it: a permutation/Bruhat-order toolkit, LRU and alternative
cache simulators, reuse-distance algorithms for arbitrary traces, synthetic
workload generators, and an application layer for permutation-equivariant
deep-learning access patterns.

Quick start
-----------
>>> from repro import Permutation, cache_hit_vector, chain_find
>>> sawtooth = Permutation.reverse(4)
>>> [int(h) for h in cache_hit_vector(sawtooth)]
[1, 2, 3, 4]
>>> chain = chain_find(Permutation.identity(4))
>>> chain.end.is_reverse()
True

Subpackages
-----------
``repro.api``
    The public experiment API: :func:`repro.api.profile`,
    :func:`repro.api.sweep`, :func:`repro.api.partition` and
    :func:`repro.api.online`, all speaking the common job/result protocol of
    the engine layer.
``repro.engine``
    The shared experiment substrate: segment arithmetic over streaming
    traces, one columnar stack-distance pass per tenant, lane simulators,
    and the worker-pool runner (with its bit-identical single-process
    reference mode) that every experiment path fans out through.
``repro.core``
    The paper's primary contribution: symmetric locality theory, Algorithm 1
    (reuse-distance histograms), Algorithm 2 (ChainFind), Theorems 2-4, and
    the appendix combinatorics.
``repro.cache``
    Cache simulators (LRU, FIFO, Belady-OPT, random, set-associative,
    multi-level) and stack-distance / miss-ratio-curve algorithms for
    arbitrary traces.
``repro.trace``
    Trace containers, re-traversal generators and synthetic workloads
    (STREAM, matrix multiply, stencil, MLP, attention, GNN).
``repro.profiling``
    Approximate MRC profiling at production scale: SHARDS spatial sampling,
    a one-pass streaming reuse-time/AET model, a sharded parallel execution
    engine, and curve-error metrics.
``repro.sim``
    The policy-sweep engine: the full ``policies × capacities`` miss-ratio
    matrix of a trace in one or few passes (single-pass exact LRU grids,
    native FIFO/random lane kernels, set-associative fan-out).
``repro.alloc``
    Multi-tenant cache partitioning: divide a shared budget among
    co-running workloads using their exact or approximate MRCs (greedy, an
    exact DP, and Talus-style convex-hull allocation) and validate against
    the simulated shared cache.
``repro.ml``
    The Section VI application layer: permutation-equivariant models and
    Theorem-4 traversal scheduling for their parameter accesses.
``repro.analysis``
    Experiment drivers that regenerate every figure and numeric claim of the
    paper (used by the ``benchmarks/`` harness).
"""

from .core import (  # noqa: F401
    ChainFindResult,
    DependencyDAG,
    LocalityProfile,
    MissRatioLabeling,
    Permutation,
    RankedMissRatioLabeling,
    TransposedLabeling,
    alternating_schedule,
    best_feasible_extension,
    bruhat_leq,
    cache_hit_vector,
    chain_find,
    count_inversions,
    covers,
    is_covering,
    locality_profile,
    mahonian_number,
    matrix_traversal_costs,
    max_inversions,
    miss_ratio,
    miss_ratio_curve,
    random_permutation,
    reuse_distances,
    stack_distances,
    theorem2_deficit,
    theorem3_compare,
    total_reuse,
)

__version__ = "1.0.0"

__all__ = [
    "ChainFindResult",
    "DependencyDAG",
    "LocalityProfile",
    "MissRatioLabeling",
    "Permutation",
    "RankedMissRatioLabeling",
    "TransposedLabeling",
    "alternating_schedule",
    "best_feasible_extension",
    "bruhat_leq",
    "cache_hit_vector",
    "chain_find",
    "count_inversions",
    "covers",
    "is_covering",
    "locality_profile",
    "mahonian_number",
    "matrix_traversal_costs",
    "max_inversions",
    "miss_ratio",
    "miss_ratio_curve",
    "random_permutation",
    "reuse_distances",
    "stack_distances",
    "theorem2_deficit",
    "theorem3_compare",
    "total_reuse",
    "__version__",
]
