"""Unit tests for repro.core.hits — Algorithm 1 and Theorems 1-3."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import count_inversions_naive

from repro.cache import LRUCache
from repro.core import (
    Permutation,
    algorithm1_paper,
    all_permutations,
    cache_hit_vector,
    corollary1_deficit,
    covers,
    hits,
    locality_profile,
    max_inversions,
    miss_ratio,
    miss_ratio_curve,
    random_permutation,
    reuse_distance_histogram,
    reuse_distances,
    stack_distances,
    theorem2_deficit,
    theorem3_compare,
    total_reuse,
)
from repro.trace import PeriodicTrace


class TestReuseDistances:
    def test_sawtooth4_paper_example(self):
        # a b c d d c b a: reuse distances 0, 1, 2, 3 reading the re-traversal
        saw = Permutation.reverse(4)
        assert reuse_distances(saw).tolist() == [0, 1, 2, 3]
        assert stack_distances(saw).tolist() == [1, 2, 3, 4]

    def test_cyclic_all_maximal(self):
        cyc = Permutation.identity(5)
        assert reuse_distances(cyc).tolist() == [4] * 5
        assert stack_distances(cyc).tolist() == [5] * 5

    def test_abccba_example_from_definition5(self):
        # trace a b c | c b a: the re-traversal is the sawtooth of 3 items;
        # the paper notes the first access of a has reuse *distance* 3 counting
        # inclusively (its stack distance); the distinct-items-between count is 2.
        saw = Permutation.reverse(3)
        assert stack_distances(saw).tolist() == [1, 2, 3]
        assert reuse_distances(saw).tolist() == [0, 1, 2]

    def test_accepts_raw_sequences(self):
        assert reuse_distances([1, 0, 2, 3]).tolist() == reuse_distances(Permutation([1, 0, 2, 3])).tolist()

    def test_empty(self):
        assert reuse_distances(Permutation([])).size == 0
        assert cache_hit_vector(Permutation([])).size == 0

    def test_matches_direct_count(self, rng):
        # brute force: count distinct items strictly between the two accesses
        for _ in range(10):
            sigma = random_permutation(12, rng)
            trace = PeriodicTrace(sigma).to_trace().accesses
            rd = reuse_distances(sigma)
            for pos_b in range(12):
                item = trace[12 + pos_b]
                first = int(np.where(trace[:12] == item)[0][0])
                between = trace[first + 1 : 12 + pos_b]
                assert rd[pos_b] == len(set(between.tolist()))


class TestAlgorithm1:
    def test_histogram_sums_to_m(self, s5):
        for sigma in s5:
            assert int(reuse_distance_histogram(sigma).sum()) == 5

    def test_hit_vector_is_cumsum_of_histogram(self, s5):
        for sigma in s5:
            assert np.array_equal(cache_hit_vector(sigma), np.cumsum(reuse_distance_histogram(sigma)))

    def test_paper_pseudocode_matches_vectorised(self, s5):
        for sigma in s5:
            rdh, chv = algorithm1_paper(sigma)
            assert np.array_equal(rdh, reuse_distance_histogram(sigma))
            assert np.array_equal(chv, cache_hit_vector(sigma))

    def test_paper_worked_example(self):
        # sigma(A) = 2 1 3 4 (1-indexed): first increment lands at index 3
        sigma = Permutation.from_one_indexed([2, 1, 3, 4])
        rdh, chv = algorithm1_paper(sigma)
        assert rdh.tolist() == [0, 0, 1, 3]
        assert chv.tolist() == [0, 0, 1, 4]

    def test_sawtooth4_hit_vector(self):
        assert cache_hit_vector(Permutation.reverse(4)).tolist() == [1, 2, 3, 4]

    def test_cyclic_hit_vector(self):
        assert cache_hit_vector(Permutation.identity(4)).tolist() == [0, 0, 0, 4]

    def test_hit_vector_monotone_and_ends_at_m(self, s5):
        for sigma in s5:
            vec = cache_hit_vector(sigma)
            assert np.all(np.diff(vec) >= 0)
            assert vec[-1] == 5


class TestAgainstLRUSimulation:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
    def test_closed_form_equals_simulation(self, m, rng):
        sigma = random_permutation(m, rng)
        trace = PeriodicTrace(sigma).to_trace()
        vec = cache_hit_vector(sigma)
        for c in range(1, m + 1):
            cache = LRUCache(c)
            stats = cache.run(trace)
            assert stats.hits == int(vec[c - 1])

    def test_every_s4_permutation_against_simulation(self, s4):
        for sigma in s4:
            trace = PeriodicTrace(sigma).to_trace()
            vec = cache_hit_vector(sigma)
            for c in range(1, 5):
                assert LRUCache(c).run(trace).hits == int(vec[c - 1])


class TestTheorems:
    # The deficits read both sides from one distance pass; the pairwise count is the independent side.
    def test_theorem2_small_groups(self):
        for m in range(1, 7):
            for sigma in all_permutations(m):
                assert theorem2_deficit(sigma) == 0
                assert sum(cache_hit_vector(sigma)[:-1]) == count_inversions_naive(sigma)

    def test_corollary1_small_groups(self):
        for m in range(1, 7):
            for sigma in all_permutations(m):
                assert corollary1_deficit(sigma) == 0
                assert sum(cache_hit_vector(sigma)) == m + count_inversions_naive(sigma)

    def test_theorems_random_large(self, rng):
        for m in (50, 200, 1000):
            sigma = random_permutation(m, rng)
            assert theorem2_deficit(sigma) == 0
            assert corollary1_deficit(sigma) == 0
            assert sum(cache_hit_vector(sigma)[:-1]) == count_inversions_naive(sigma)

    def test_theorem2_aggregate_form_on_all_covering_pairs(self, s4):
        # For every Bruhat cover the truncated hit-vector sum grows by exactly
        # one (the consequence of Theorem 2 that the paper's Theorem 3 proof
        # actually establishes).
        for sigma in s4:
            for tau in covers(sigma):
                report = theorem3_compare(sigma, tau)
                assert report["hit_gain"] == 1
                assert len(report["improved_sizes"]) >= 1

    def test_theorem3_holds_for_adjacent_covers(self, s5):
        # The pointwise-dominance statement is true when the covering step is
        # an adjacent transposition (weak-order cover): exactly one stack
        # distance shrinks by one.
        from repro.core import weak_covers

        for sigma in s5:
            for tau in weak_covers(sigma):
                report = theorem3_compare(sigma, tau)
                assert report["dominates"]
                assert report["improved_sizes"] and len(report["improved_sizes"]) == 1
                assert report["hit_gain"] == 1

    def test_theorem3_counterexample_for_nonadjacent_cover(self):
        # Reproduction finding: Theorem 3 as stated fails for the Bruhat cover
        # (2,1,4,3) -> (4,1,2,3); see DESIGN.md.
        sigma = Permutation.from_one_indexed([2, 1, 4, 3])
        tau = Permutation.from_one_indexed([4, 1, 2, 3])
        from repro.core import is_covering

        assert is_covering(sigma, tau)
        report = theorem3_compare(sigma, tau)
        assert not report["dominates"]
        assert report["hit_gain"] == 1
        assert cache_hit_vector(sigma).tolist() == [0, 0, 2, 4]
        assert cache_hit_vector(tau).tolist() == [1, 1, 1, 4]

    def test_theorem3_requires_same_size(self):
        with pytest.raises(ValueError):
            theorem3_compare(Permutation.identity(3), Permutation.identity(4))


class TestMissRatios:
    def test_hits_function(self):
        saw = Permutation.reverse(4)
        assert hits(saw, 0) == 0
        assert hits(saw, 2) == 2
        assert hits(saw, 100) == 4

    def test_miss_ratio_conventions(self):
        saw = Permutation.reverse(4)
        assert miss_ratio(saw, 4, convention="full") == pytest.approx(0.5)
        assert miss_ratio(saw, 4, convention="retraversal") == pytest.approx(0.0)
        assert miss_ratio(Permutation.identity(4), 3, convention="retraversal") == pytest.approx(1.0)

    def test_miss_ratio_invalid_convention(self):
        with pytest.raises(ValueError):
            miss_ratio(Permutation.identity(3), 1, convention="bogus")
        with pytest.raises(ValueError):
            miss_ratio_curve(Permutation.identity(3), convention="bogus")

    def test_miss_ratio_curve_monotone_nonincreasing(self, s5):
        for sigma in s5:
            curve = miss_ratio_curve(sigma)
            assert np.all(np.diff(curve) <= 1e-12)

    def test_miss_ratio_curve_max_cache_size(self):
        curve = miss_ratio_curve(Permutation.reverse(6), max_cache_size=3)
        assert curve.size == 3

    def test_miss_ratio_curve_empty_raises(self):
        with pytest.raises(ValueError):
            miss_ratio_curve(Permutation([]))

    def test_weak_order_implies_pointwise_mrc_dominance(self, s4):
        # Pointwise MRC dominance follows the *weak* order (chains of adjacent
        # swaps); it does not hold for every Bruhat-comparable pair (see the
        # Theorem 3 counterexample above).
        from repro.core import weak_order_leq

        for sigma in s4:
            for tau in s4:
                if weak_order_leq(sigma, tau):
                    assert np.all(miss_ratio_curve(tau) <= miss_ratio_curve(sigma) + 1e-12)

    def test_average_mrc_still_ordered_by_inversion_level(self, s5):
        # The Figure 1 aggregate claim survives: averaging curves within an
        # inversion level produces a family ordered by the level.
        from repro.cache import average_curves

        by_level: dict[int, list[np.ndarray]] = {}
        for sigma in s5:
            by_level.setdefault(sigma.inversions(), []).append(miss_ratio_curve(sigma))
        levels = sorted(by_level)
        averages = [average_curves(by_level[k]) for k in levels]
        for lower, higher in zip(averages, averages[1:]):
            assert np.all(higher <= lower + 1e-12)


class TestTotalReuseAndProfile:
    def test_total_reuse_extremes(self):
        assert total_reuse(Permutation.identity(6)) == 36
        assert total_reuse(Permutation.reverse(6)) == 21

    def test_total_reuse_equals_sum_of_stack_distances(self, s5):
        for sigma in s5:
            assert total_reuse(sigma) == int(stack_distances(sigma).sum())

    def test_locality_profile_consistency(self, rng):
        sigma = random_permutation(9, rng)
        profile = locality_profile(sigma)
        assert profile.size == 9
        assert profile.inversions == sigma.inversions()
        assert profile.hit_vector == tuple(int(x) for x in cache_hit_vector(sigma))
        assert profile.total_reuse == total_reuse(sigma)
        assert 0.0 <= profile.normalized_locality() <= 1.0

    def test_normalized_locality_extremes(self):
        assert locality_profile(Permutation.identity(7)).normalized_locality() == 0.0
        assert locality_profile(Permutation.reverse(7)).normalized_locality() == 1.0

    def test_profile_mrc_conventions_related(self, rng):
        sigma = random_permutation(6, rng)
        profile = locality_profile(sigma)
        full = np.asarray(profile.mrc_full)
        retr = np.asarray(profile.mrc_retraversal)
        # full-trace miss ratio = (m + misses_retraversal) / 2m
        assert np.allclose(full, 0.5 + 0.5 * retr)

    def test_maximal_inversions_constant(self):
        assert max_inversions(8) == 28
