"""Unit tests for repro.core.mahonian — appendix VIII-F combinatorics."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    Permutation,
    all_permutations,
    hit_vector_partition,
    integer_partitions,
    mahonian_number,
    mahonian_row,
    mahonian_triangle,
    max_inversions,
    partition_counts_at_level,
    partitions_at_level,
    permutations_with_inversions,
    random_permutation_with_inversions,
    truncated_miss_integral,
    truncated_miss_integral_by_level,
)


class TestMahonianNumbers:
    def test_known_rows(self):
        assert mahonian_row(1) == (1,)
        assert mahonian_row(2) == (1, 1)
        assert mahonian_row(3) == (1, 2, 2, 1)
        assert mahonian_row(4) == (1, 3, 5, 6, 5, 3, 1)
        assert mahonian_row(5) == (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1)

    def test_rows_sum_to_factorial(self):
        for m in range(1, 9):
            assert sum(mahonian_row(m)) == math.factorial(m)

    def test_rows_symmetric(self):
        for m in range(1, 9):
            row = mahonian_row(m)
            assert row == row[::-1]

    def test_mahonian_number_out_of_range(self):
        assert mahonian_number(4, 7) == 0
        assert mahonian_number(4, 100) == 0

    def test_matches_enumeration(self):
        for m in range(1, 7):
            counts = {}
            for sigma in all_permutations(m):
                counts[sigma.inversions()] = counts.get(sigma.inversions(), 0) + 1
            for n in range(max_inversions(m) + 1):
                assert counts.get(n, 0) == mahonian_number(m, n)

    def test_triangle(self):
        triangle = mahonian_triangle(4)
        assert len(triangle) == 4
        assert triangle[-1] == mahonian_row(4)

    def test_m_zero(self):
        assert mahonian_row(0) == (1,)


class TestEnumerationAndSampling:
    def test_permutations_with_inversions_counts(self):
        for m in (4, 5, 6):
            for n in range(max_inversions(m) + 1):
                assert len(list(permutations_with_inversions(m, n))) == mahonian_number(m, n)

    def test_enumerated_permutations_have_requested_inversions(self):
        for sigma in permutations_with_inversions(6, 7):
            assert sigma.inversions() == 7

    def test_impossible_level_is_empty(self):
        assert list(permutations_with_inversions(4, 7)) == []

    def test_random_sampler_level(self, rng):
        for n in (0, 5, 10, 15):
            sigma = random_permutation_with_inversions(7, n, rng)
            assert sigma.inversions() == n

    def test_random_sampler_rejects_impossible(self):
        with pytest.raises(ValueError):
            random_permutation_with_inversions(4, 10)

    def test_random_sampler_covers_level_uniformly_enough(self, rng):
        # all 5 permutations of S_4 at level 2 should appear in a large sample
        seen = set()
        for _ in range(200):
            seen.add(random_permutation_with_inversions(4, 2, rng))
        assert len(seen) == mahonian_number(4, 2)


class TestIntegerPartitions:
    def test_partitions_of_small_numbers(self):
        assert set(integer_partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
        assert list(integer_partitions(0)) == [()]

    def test_max_part_bound(self):
        assert set(integer_partitions(4, max_part=2)) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}

    def test_max_parts_bound(self):
        assert set(integer_partitions(4, max_parts=2)) == {(4,), (3, 1), (2, 2)}

    def test_partition_count_matches_known_values(self):
        known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for n, p in known.items():
            assert len(list(integer_partitions(n))) == p


class TestHitVectorPartitions:
    def test_partition_sums_to_inversions(self, s5):
        for sigma in s5:
            assert sum(hit_vector_partition(sigma)) == sigma.inversions()

    def test_parts_bounded_by_m_minus_one(self, s5):
        for sigma in s5:
            parts = hit_vector_partition(sigma)
            assert all(1 <= p <= 4 for p in parts)

    def test_extremes(self):
        assert hit_vector_partition(Permutation.identity(5)) == ()
        assert hit_vector_partition(Permutation.reverse(5)) == (4, 3, 2, 1)

    def test_every_level_partition_is_valid_partition(self):
        m = 5
        for level in range(max_inversions(m) + 1):
            valid = set(integer_partitions(level, max_part=m - 1, max_parts=m - 1))
            assert partitions_at_level(m, level) <= valid

    @pytest.mark.parametrize("m", [5, 6])
    def test_no_permutation_yields_m_parts(self, m):
        # item 0's re-access always has stack distance m, so it never contributes a part
        assert max(len(hit_vector_partition(sigma)) for sigma in all_permutations(m)) == m - 1

    def test_partition_counts_sum_to_mahonian(self):
        m = 5
        for level in (0, 3, 6, 10):
            counts = partition_counts_at_level(m, level)
            assert sum(counts.values()) == mahonian_number(m, level)


class TestMissIntegral:
    def test_extremes(self):
        for m in (3, 5, 8):
            assert truncated_miss_integral(Permutation.identity(m)) == pytest.approx(1.0)
            assert truncated_miss_integral(Permutation.reverse(m)) == pytest.approx(0.5)

    def test_constant_within_level_and_linear_slope(self):
        m = 5
        values: dict[int, set[float]] = {}
        for sigma in all_permutations(m):
            values.setdefault(sigma.inversions(), set()).add(round(truncated_miss_integral(sigma), 12))
        for level, observed in values.items():
            assert len(observed) == 1
            expected = 1.0 - level / (m * (m - 1))
            assert next(iter(observed)) == pytest.approx(expected)

    def test_by_level_closed_form(self):
        table = truncated_miss_integral_by_level(6)
        assert table[0] == pytest.approx(1.0)
        assert table[max_inversions(6)] == pytest.approx(0.5)
        drops = [table[k] - table[k + 1] for k in range(max_inversions(6))]
        assert all(d == pytest.approx(1.0 / 30) for d in drops)

    def test_small_m_raises(self):
        with pytest.raises(ValueError):
            truncated_miss_integral(Permutation.identity(1))
        with pytest.raises(ValueError):
            truncated_miss_integral_by_level(1)
