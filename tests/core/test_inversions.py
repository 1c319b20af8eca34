"""Unit tests for repro.core.inversions."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import FenwickTree, count_inversions_fenwick, count_inversions_naive

from repro.core import (
    count_inversions,
    inversion_vector,
    left_inversion_counts,
    max_inversions,
)
from repro.core import Permutation, random_permutation


ALL_IMPLEMENTATIONS = [
    count_inversions_naive,
    count_inversions_fenwick,
    count_inversions,
]
VALIDATED = [count_inversions, inversion_vector, left_inversion_counts]


class TestFenwickTree:
    def test_prefix_sums(self):
        tree = FenwickTree(8)
        for i in [0, 3, 3, 7]:
            tree.add(i)
        assert tree.prefix_sum(-1) == 0
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(2) == 1
        assert tree.prefix_sum(3) == 3
        assert tree.prefix_sum(7) == 4
        assert tree.prefix_sum(100) == 4
        assert tree.total == 4

    def test_range_and_suffix_sums(self):
        tree = FenwickTree(6)
        for i in range(6):
            tree.add(i, i)
        assert tree.range_sum(2, 4) == 2 + 3 + 4
        assert tree.range_sum(4, 2) == 0
        assert tree.suffix_sum(3) == 3 + 4 + 5

    def test_negative_delta(self):
        tree = FenwickTree(4)
        tree.add(2, 5)
        tree.add(2, -3)
        assert tree.prefix_sum(3) == 2

    def test_out_of_range(self):
        tree = FenwickTree(4)
        with pytest.raises(IndexError):
            tree.add(4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_zero_size_tree(self):
        tree = FenwickTree(0)
        assert tree.prefix_sum(0) == 0


class TestCountImplementationsAgree:
    @pytest.mark.parametrize("impl", ALL_IMPLEMENTATIONS)
    def test_known_values(self, impl):
        assert impl([]) == 0
        assert impl([5]) == 0
        assert impl([0, 1, 2, 3]) == 0
        assert impl([3, 2, 1, 0]) == 6
        assert impl([1, 0, 2, 3]) == 1
        assert impl([2, 0, 3, 1]) == 3

    @pytest.mark.parametrize("impl", ALL_IMPLEMENTATIONS)
    def test_matches_naive_on_random_sequences(self, impl, rng):
        for _ in range(20):
            seq = rng.integers(0, 30, size=int(rng.integers(0, 40)))
            assert impl(seq) == count_inversions_naive(seq)

    @pytest.mark.parametrize("impl", ALL_IMPLEMENTATIONS)
    def test_handles_duplicates(self, impl):
        assert impl([2, 2, 1, 1]) == 4
        assert impl([1, 1, 1]) == 0

    def test_large_input_matches_fenwick(self, rng):
        seq = rng.permutation(3000)
        assert count_inversions(seq) == count_inversions_fenwick(seq)


class TestInputValidation:
    """One path at every size: the same inputs are rejected at 4 and at 4,096 elements."""

    @pytest.mark.parametrize("func", VALIDATED)
    @pytest.mark.parametrize("size", [4, 4096])
    def test_two_dimensional_input_is_rejected(self, func, size):
        with pytest.raises(ValueError, match="one-dimensional"):
            func(np.arange(size).reshape(2, size // 2))

    @pytest.mark.parametrize("func", VALIDATED)
    @pytest.mark.parametrize("size", [4, 4096])
    def test_non_integral_floats_are_rejected(self, func, size):
        with pytest.raises(TypeError, match="integers"):
            func(np.tile([1.5, 0.5], size // 2))

    @pytest.mark.parametrize("size", [4, 4096])
    def test_integral_floats_count_like_integers(self, size):
        seq = np.tile([1.0, 0.0], size // 2)
        assert count_inversions(seq) == count_inversions_fenwick(seq.astype(int))

    def test_uint64_labels_above_the_intp_range_keep_their_order(self):
        seq = np.array([2**63, 0, 2**64 - 1, 1], dtype=np.uint64)
        assert count_inversions(seq) == count_inversions_naive(seq.tolist()) == 3
        assert inversion_vector(seq).tolist() == [2, 0, 1, 0]
        assert left_inversion_counts(seq).tolist() == [0, 1, 0, 2]


class TestInversionIdentities:
    def test_max_inversions(self):
        assert max_inversions(0) == 0
        assert max_inversions(1) == 0
        assert max_inversions(5) == 10
        with pytest.raises(ValueError):
            max_inversions(-1)

    def test_reverse_attains_max(self):
        for m in range(2, 8):
            assert Permutation.reverse(m).inversions() == max_inversions(m)

    def test_inverse_has_same_inversions(self, rng):
        for _ in range(10):
            sigma = random_permutation(20, rng)
            assert sigma.inversions() == sigma.inverse().inversions()

    def test_reverse_complement_identity(self, rng):
        # ℓ(w0 * sigma) = max - ℓ(sigma)
        w0 = Permutation.reverse(10)
        for _ in range(10):
            sigma = random_permutation(10, rng)
            assert (w0 * sigma).inversions() == max_inversions(10) - sigma.inversions()

    def test_inversion_vector_sums_to_total(self, s5):
        for sigma in s5:
            assert int(inversion_vector(sigma.one_line).sum()) == sigma.inversions()

    def test_inversion_vector_is_lehmer_code(self, s4):
        for sigma in s4:
            assert tuple(inversion_vector(sigma.one_line)) == sigma.lehmer_code()

    def test_left_inversion_counts_sum(self, s5):
        for sigma in s5:
            assert int(left_inversion_counts(sigma.one_line).sum()) == sigma.inversions()

    def test_left_inversion_counts_definition(self):
        word = [3, 0, 2, 1]
        counts = left_inversion_counts(word)
        assert counts.tolist() == [0, 1, 1, 2]

    def test_empty_vectors(self):
        assert inversion_vector([]).size == 0
        assert left_inversion_counts([]).size == 0
