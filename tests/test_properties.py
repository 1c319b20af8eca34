"""Property-based tests (hypothesis) for the core invariants.

These exercise the central identities of the paper and the data structures of
the substrate on randomly generated inputs:

* Theorem 2 / Corollary 1 on arbitrary permutations,
* agreement between all inversion-counting implementations,
* agreement between the closed-form hit vector, the paper's Algorithm 1
  pseudocode, the generic Olken stack-distance algorithm and full LRU
  simulation,
* group axioms and Lehmer/rank round trips of :class:`Permutation`,
* monotonicity of miss-ratio curves and of the Bruhat/weak order machinery,
* Fenwick tree prefix sums against a NumPy oracle,
* feasibility-constrained optimisation bounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FenwickTree,
    count_inversions_fenwick,
    count_inversions_naive,
    footprint_curve_naive,
    stack_distances_fenwick,
)

from repro.cache import LRUCache, hit_counts
from repro.core import (
    Permutation,
    algorithm1_paper,
    bruhat_leq,
    cache_hit_vector,
    corollary1_deficit,
    count_inversions,
    covers,
    hit_vector_partition,
    is_covering,
    max_inversions,
    miss_ratio_curve,
    stack_distances,
    theorem2_deficit,
    total_reuse,
    truncated_miss_integral,
    weak_order_leq,
)
from repro.core.feasibility import (
    DependencyDAG,
    best_feasible_extension,
    greedy_feasible_extension,
    is_feasible,
)
from repro.trace import PeriodicTrace


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
permutations = st.integers(min_value=1, max_value=40).flatmap(lambda m: st.permutations(range(m))).map(Permutation)

small_permutations = st.integers(min_value=1, max_value=9).flatmap(lambda m: st.permutations(range(m))).map(Permutation)

int_sequences = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=80)


# --------------------------------------------------------------------------- #
# Theorems
# --------------------------------------------------------------------------- #
# theorem2_deficit and corollary1_deficit read both sides from one distance pass,
# so each test also checks the summed hit vector against the pairwise count.
@given(permutations)
def test_theorem2_holds_for_every_permutation(sigma):
    assert theorem2_deficit(sigma) == 0
    assert sum(cache_hit_vector(sigma)[:-1]) == count_inversions_naive(sigma)


@given(permutations)
def test_corollary1_holds_for_every_permutation(sigma):
    assert corollary1_deficit(sigma) == 0
    assert sum(cache_hit_vector(sigma)) == sigma.size + count_inversions_naive(sigma)


@given(permutations)
def test_total_reuse_identity(sigma):
    # sum of stack distances = m^2 - ℓ(σ)
    assert total_reuse(sigma) == sigma.size ** 2 - sigma.inversions()
    assert total_reuse(sigma) == int(stack_distances(sigma).sum())


@given(permutations)
def test_hit_vector_monotone_and_bounded(sigma):
    vec = cache_hit_vector(sigma)
    assert np.all(np.diff(vec) >= 0)
    assert vec[-1] == sigma.size
    assert np.all(vec >= 0)


@given(permutations)
def test_miss_ratio_curve_monotone_nonincreasing(sigma):
    curve = miss_ratio_curve(sigma)
    assert np.all(np.diff(curve) <= 1e-12)
    assert curve[-1] == 0.5  # full-trace convention: only cold misses remain


@given(permutations)
def test_algorithm1_pseudocode_agrees_with_vectorised(sigma):
    rdh, chv = algorithm1_paper(sigma)
    assert np.array_equal(chv, cache_hit_vector(sigma))
    assert int(rdh.sum()) == sigma.size


@given(small_permutations, st.integers(min_value=1, max_value=9))
def test_closed_form_matches_lru_simulation(sigma, cache_size):
    cache_size = min(cache_size, sigma.size)
    trace = PeriodicTrace(sigma).to_trace()
    hits = LRUCache(cache_size).run(trace).hits
    assert hits == int(cache_hit_vector(sigma)[cache_size - 1])


@given(permutations)
def test_periodic_trace_stack_distances_match_generic_algorithm(sigma):
    trace = PeriodicTrace(sigma).to_trace().accesses
    measured = stack_distances_fenwick(trace)[sigma.size :]
    assert np.array_equal(measured, stack_distances(sigma))


@given(permutations)
def test_hit_vector_partition_sums_to_inversions(sigma):
    parts = hit_vector_partition(sigma)
    assert sum(parts) == sigma.inversions()
    assert all(1 <= p <= max(sigma.size - 1, 0) for p in parts)


@given(st.integers(min_value=2, max_value=40).flatmap(lambda m: st.permutations(range(m))).map(Permutation))
def test_truncated_miss_integral_closed_form(sigma):
    m = sigma.size
    expected = 1.0 - sigma.inversions() / (m * (m - 1))
    assert abs(truncated_miss_integral(sigma) - expected) < 1e-9


# --------------------------------------------------------------------------- #
# Inversion counting and permutation algebra
# --------------------------------------------------------------------------- #
@given(int_sequences)
def test_inversion_counters_agree(seq):
    expected = count_inversions_naive(seq)
    assert count_inversions(seq) == expected
    assert count_inversions_fenwick(seq) == expected


@given(permutations)
def test_inverse_is_involution_and_preserves_length(sigma):
    assert sigma.inverse().inverse() == sigma
    assert sigma.inverse().inversions() == sigma.inversions()


@given(small_permutations, small_permutations)
def test_composition_inverse_antihomomorphism(sigma, tau):
    if sigma.size != tau.size:
        return
    assert (sigma * tau).inverse() == tau.inverse() * sigma.inverse()


@given(permutations)
def test_lehmer_code_round_trip(sigma):
    assert Permutation.from_lehmer(sigma.lehmer_code()) == sigma


@given(st.integers(min_value=1, max_value=8), st.data())
def test_rank_unrank_round_trip(m, data):
    import math

    rank = data.draw(st.integers(min_value=0, max_value=math.factorial(m) - 1))
    assert Permutation.unrank(m, rank).rank() == rank


@given(permutations)
def test_inversions_bounded_by_maximum(sigma):
    assert 0 <= sigma.inversions() <= max_inversions(sigma.size)


@given(small_permutations)
def test_covers_add_exactly_one_inversion(sigma):
    for tau in covers(sigma):
        assert tau.inversions() == sigma.inversions() + 1
        assert is_covering(sigma, tau)
        assert bruhat_leq(sigma, tau)


@given(small_permutations)
def test_weak_order_implies_bruhat_order(sigma):
    top = Permutation.reverse(sigma.size)
    assert weak_order_leq(sigma, top)
    assert bruhat_leq(sigma, top)


# --------------------------------------------------------------------------- #
# Substrate data structures
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=-5, max_value=5)), max_size=60))
def test_fenwick_tree_matches_numpy_prefix_sums(updates):
    tree = FenwickTree(64)
    oracle = np.zeros(64, dtype=np.int64)
    for index, delta in updates:
        tree.add(index, delta)
        oracle[index] += delta
    for probe in (0, 1, 7, 31, 63):
        assert tree.prefix_sum(probe) == int(oracle[: probe + 1].sum())
    assert tree.total == int(oracle.sum())


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120),
       st.integers(min_value=1, max_value=32))
def test_hit_counts_match_lru_simulation_on_arbitrary_traces(trace, cache_size):
    hits_vec = hit_counts(trace, max_cache_size=cache_size)
    simulated = LRUCache(cache_size).run(trace).hits
    assert int(hits_vec[cache_size - 1]) == simulated


@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_feasible_optimisation_bounds(m, probability, seed):
    dag = DependencyDAG.random(m, probability, seed)
    sigma, exact = best_feasible_extension(dag)
    greedy = greedy_feasible_extension(dag)
    assert is_feasible(sigma, dag)
    assert is_feasible(greedy, dag)
    assert is_feasible(Permutation.identity(m), dag)
    assert greedy.inversions() <= exact <= max_inversions(m)


# --------------------------------------------------------------------------- #
# Footprint and phase decomposition
# --------------------------------------------------------------------------- #
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=40))
@settings(max_examples=60)
def test_footprint_curve_matches_brute_force(trace):
    from repro.cache import footprint_curve

    curve = footprint_curve(trace)
    assert curve.size == len(trace) + 1
    np.testing.assert_allclose(curve, footprint_curve_naive(trace), rtol=0, atol=1e-9)


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=60))
@settings(max_examples=60)
def test_footprint_monotone_and_bounded(trace):
    from repro.cache import footprint_curve

    curve = footprint_curve(trace)
    distinct = len(set(trace))
    assert np.all(np.diff(curve) >= -1e-9)
    assert curve[-1] <= distinct + 1e-9
    assert abs(curve[-1] - distinct) < 1e-9


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40)
def test_phase_model_prediction_exact_for_epoch_traces(m, passes, seed):
    from repro.trace import phase_decomposition, predicted_hits, repeated_traversals

    rng_local = np.random.default_rng(seed)
    schedule = [Permutation(rng_local.permutation(m)) for _ in range(passes)]
    trace = repeated_traversals(schedule)
    decomposition = phase_decomposition(trace)
    assert decomposition.decomposable
    assert decomposition.num_phases == passes
    for cache_size in (1, max(1, m // 2), m):
        predicted = predicted_hits(decomposition, cache_size)
        measured = LRUCache(cache_size).run(trace).hits
        assert predicted == measured


@given(permutations)
def test_data_movement_distance_ordering_consistent_with_theorem2(sigma):
    # the data-movement distance of a re-traversal is a strictly decreasing
    # function of each stack distance improvement, so the sawtooth of the same
    # size is never costlier than sigma
    from repro.cache import data_movement_distance
    from repro.trace import PeriodicTrace as PT

    cost_sigma = data_movement_distance(PT(sigma).to_trace().accesses)
    cost_sawtooth = data_movement_distance(PT.sawtooth(sigma.size).to_trace().accesses)
    assert cost_sawtooth <= cost_sigma + 1e-9
