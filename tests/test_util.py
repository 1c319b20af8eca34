"""Unit tests for the shared validation helpers in repro._util."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import (
    as_int_array,
    check_nonnegative_int,
    check_permutation_array,
    check_positive_int,
    ensure_rng,
)


class TestIntChecks:
    def test_positive_accepts_python_and_numpy_ints(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(5), "x") == 5

    def test_positive_rejects_zero_negative_bool_float(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(ValueError):
            check_positive_int(-2, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")

    def test_nonnegative(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")
        with pytest.raises(TypeError):
            check_nonnegative_int("3", "x")

    def test_error_message_mentions_name(self):
        with pytest.raises(ValueError, match="capacity"):
            check_positive_int(-1, "capacity")


class TestAsIntArray:
    def test_accepts_lists_tuples_generators_arrays(self):
        assert as_int_array([1, 2, 3]).tolist() == [1, 2, 3]
        assert as_int_array((4, 5)).tolist() == [4, 5]
        assert as_int_array(iter([6])).tolist() == [6]
        assert as_int_array(np.asarray([7, 8])).dtype == np.intp

    def test_accepts_integer_valued_floats(self):
        assert as_int_array(np.asarray([1.0, 2.0])).tolist() == [1, 2]

    def test_rejects_fractional_floats_and_2d(self):
        with pytest.raises(TypeError):
            as_int_array(np.asarray([1.5]))
        with pytest.raises(ValueError):
            as_int_array(np.zeros((2, 2), dtype=int))

    def test_empty(self):
        assert as_int_array([]).size == 0


class TestCheckPermutationArray:
    def test_valid(self):
        assert check_permutation_array([2, 0, 1]).tolist() == [2, 0, 1]
        assert check_permutation_array([]).size == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_permutation_array([0, 0, 1])
        with pytest.raises(ValueError):
            check_permutation_array([1, 2, 3])
        with pytest.raises(ValueError):
            check_permutation_array([-1, 0, 1])


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_reproducible(self):
        a = ensure_rng(42).integers(1000)
        b = ensure_rng(42).integers(1000)
        assert a == b

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")
