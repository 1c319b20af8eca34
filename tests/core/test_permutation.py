"""Unit tests for repro.core.permutation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Permutation, adjacent_transposition, all_permutations, random_permutation, transposition
from repro.core.permutation import permutations_by_inversions


class TestConstruction:
    def test_identity(self):
        e = Permutation.identity(5)
        assert e.one_line == (0, 1, 2, 3, 4)
        assert e.is_identity()
        assert not e.is_reverse()

    def test_reverse(self):
        w0 = Permutation.reverse(4)
        assert w0.one_line == (3, 2, 1, 0)
        assert w0.is_reverse()
        assert not w0.is_identity()

    def test_empty_permutation(self):
        e = Permutation([])
        assert e.size == 0
        assert e.is_identity()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])
        with pytest.raises(ValueError):
            Permutation([0, 2])

    def test_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            Permutation([0.5, 1.5])

    def test_from_one_indexed_round_trip(self):
        sigma = Permutation.from_one_indexed([2, 1, 3, 4])
        assert sigma.one_line == (1, 0, 2, 3)
        assert sigma.one_indexed() == (2, 1, 3, 4)

    def test_from_cycles_matches_composition(self):
        a = Permutation.from_cycles(4, [(0, 1)])
        b = Permutation.from_cycles(4, [(1, 2)])
        ab = Permutation.from_cycles(4, [(0, 1), (1, 2)])
        assert ab == a * b

    def test_from_cycles_one_indexed(self):
        sigma = Permutation.from_cycles(3, [(1, 3)], one_indexed=True)
        assert sigma.one_line == (2, 1, 0)

    def test_from_cycles_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(0, 0)])
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, [(0, 5)])

    def test_lehmer_round_trip(self):
        for sigma in all_permutations(5):
            assert Permutation.from_lehmer(sigma.lehmer_code()) == sigma

    def test_lehmer_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation.from_lehmer([3, 0, 0])

    def test_unrank_rank_round_trip(self):
        for rank in range(math.factorial(4)):
            assert Permutation.unrank(4, rank).rank() == rank

    def test_unrank_identity_and_reverse(self):
        assert Permutation.unrank(4, 0).is_identity()
        assert Permutation.unrank(4, math.factorial(4) - 1).is_reverse()

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation.unrank(3, 6)


class TestGroupStructure:
    def test_composition_definition(self):
        sigma = Permutation([1, 2, 0])
        tau = Permutation([2, 1, 0])
        composed = sigma * tau
        for i in range(3):
            assert composed(i) == sigma(tau(i))

    def test_inverse(self):
        for sigma in all_permutations(4):
            assert (sigma * sigma.inverse()).is_identity()
            assert (sigma.inverse() * sigma).is_identity()

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_power(self):
        sigma = Permutation([1, 2, 3, 0])  # 4-cycle
        assert sigma.power(4).is_identity()
        assert sigma.power(0).is_identity()
        assert sigma.power(-1) == sigma.inverse()
        assert sigma.power(2) == sigma * sigma

    def test_order(self):
        assert Permutation([1, 2, 3, 0]).order() == 4
        assert Permutation([1, 0, 3, 2]).order() == 2
        assert Permutation.identity(6).order() == 1

    def test_conjugate_preserves_cycle_type(self):
        sigma = Permutation([1, 0, 3, 4, 2])
        tau = Permutation([4, 2, 0, 1, 3])
        assert sigma.conjugate(tau).cycle_type() == sigma.cycle_type()

    def test_is_involution(self):
        assert Permutation([1, 0, 2]).is_involution()
        assert not Permutation([1, 2, 0]).is_involution()

    def test_sign_multiplicative(self, s4):
        for sigma in s4[:8]:
            for tau in s4[:8]:
                assert (sigma * tau).sign() == sigma.sign() * tau.sign()


class TestStructure:
    def test_cycles_cover_all_points(self):
        sigma = Permutation([2, 0, 1, 4, 3, 5])
        cycles = sigma.cycles(include_fixed_points=True)
        covered = sorted(x for c in cycles for x in c)
        assert covered == list(range(6))

    def test_cycles_exclude_fixed_points_by_default(self):
        sigma = Permutation([0, 2, 1, 3])
        assert sigma.cycles() == [(1, 2)]

    def test_cycle_type_sorted(self):
        assert Permutation([1, 2, 0, 4, 3]).cycle_type() == (3, 2)

    def test_descents(self):
        assert Permutation([2, 0, 3, 1]).descents() == [0, 2]
        assert Permutation.identity(5).descents() == []
        assert Permutation.reverse(4).descents() == [0, 1, 2]

    def test_inversions_extremes(self):
        assert Permutation.identity(6).inversions() == 0
        assert Permutation.reverse(6).inversions() == 15

    def test_inversion_pairs_count_matches(self):
        for sigma in all_permutations(4):
            assert len(sigma.inversion_pairs()) == sigma.inversions()

    def test_lehmer_sum_is_inversions(self):
        for sigma in all_permutations(5):
            assert sum(sigma.lehmer_code()) == sigma.inversions()

    def test_parity_matches_paper_example(self):
        # (13) = (23)(12)(23) has length 3 => odd
        sigma = Permutation.from_cycles(3, [(1, 3)], one_indexed=True)
        assert sigma.inversions() == 3
        assert sigma.parity() == 1


class TestAction:
    def test_apply_list(self):
        sigma = Permutation([2, 0, 1])
        assert sigma.apply(["a", "b", "c"]) == ["c", "a", "b"]

    def test_apply_numpy(self):
        sigma = Permutation([2, 0, 1])
        out = sigma.apply(np.asarray([10, 20, 30]))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [30, 10, 20]

    def test_apply_wrong_length(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).apply([1, 2])

    def test_apply_identity_is_noop(self):
        data = list(range(10))
        assert Permutation.identity(10).apply(data) == data

    def test_swap_positions(self):
        sigma = Permutation.identity(4).swap_positions(1, 3)
        assert sigma.one_line == (0, 3, 2, 1)

    def test_swap_positions_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).swap_positions(0, 5)

    def test_getitem_iter_len(self):
        sigma = Permutation([1, 2, 0])
        assert sigma[0] == 1
        assert list(sigma) == [1, 2, 0]
        assert len(sigma) == 3

    def test_hash_and_equality(self):
        a = Permutation([1, 0, 2])
        b = Permutation((1, 0, 2))
        assert a == b
        assert hash(a) == hash(b)
        assert a == (1, 0, 2)
        assert a != Permutation([0, 1, 2])

    def test_repr_str(self):
        sigma = Permutation([1, 0, 2])
        assert "Permutation" in repr(sigma)
        assert str(sigma) == "(0 1)"
        assert str(Permutation.identity(3)) == "e[3]"


class TestEnumeration:
    def test_all_permutations_count(self):
        assert len(list(all_permutations(4))) == 24
        assert len(list(all_permutations(0))) == 1

    def test_all_permutations_lexicographic(self):
        perms = list(all_permutations(3))
        assert perms[0].is_identity()
        assert perms[-1].is_reverse()

    def test_permutations_by_inversions_totals(self):
        groups = permutations_by_inversions(4)
        assert sum(len(v) for v in groups.values()) == 24
        assert len(groups[0]) == 1 and len(groups[6]) == 1

    def test_unvalidated_constructions_equal_validated_ones(self):
        """Enumeration, composition and inversion build their results without
        re-validating; each must equal (and hash like) the checked constructor's."""
        groups = permutations_by_inversions(4)
        built = list(all_permutations(4)) + [s for group in groups.values() for s in group]
        tau = Permutation([2, 0, 3, 1])
        built += [sigma * tau for sigma in built[:24]] + [sigma.inverse() for sigma in built[:24]]
        for sigma in built:
            checked = Permutation(list(sigma.one_line))
            assert sigma == checked and hash(sigma) == hash(checked)
            assert all(type(image) is int for image in sigma.one_line)
        with pytest.raises(ValueError):
            Permutation([0, 0])

    def test_random_permutation_is_valid(self, rng):
        for _ in range(20):
            sigma = random_permutation(8, rng)
            assert sorted(sigma.one_line) == list(range(8))

    def test_random_permutation_seeded_reproducible(self):
        assert random_permutation(10, 7) == random_permutation(10, 7)


class TestTranspositions:
    def test_transposition(self):
        t = transposition(4, 1, 3)
        assert t.one_line == (0, 3, 2, 1)
        assert t.is_involution()

    def test_transposition_rejects_same_point(self):
        with pytest.raises(ValueError):
            transposition(4, 2, 2)

    def test_adjacent_transposition(self):
        s1 = adjacent_transposition(4, 1)
        assert s1.one_line == (0, 2, 1, 3)
        with pytest.raises(ValueError):
            adjacent_transposition(4, 3)

    def test_adjacent_transpositions_generate_group(self):
        # every permutation of S_4 is a product of adjacent transpositions
        generators = [adjacent_transposition(4, i) for i in range(3)]
        seen = {Permutation.identity(4)}
        frontier = [Permutation.identity(4)]
        while frontier:
            nxt = []
            for sigma in frontier:
                for g in generators:
                    cand = sigma * g
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        assert len(seen) == 24
