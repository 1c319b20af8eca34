"""The lower convex hull: the native monotone chain against the Python one, bit for bit.

:func:`repro.alloc.curves.lower_convex_hull` runs ``lower_hull`` from the
native kernel library where a C compiler is available and the Python chain
otherwise.  Both evaluate the same cross-product test in the same order, so
every input, including collinear and near-collinear points whose ``>=``
decision rests on the last rounding bit, gets the same vertices from both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import curves, hull_allocate
from repro.alloc.curves import DiscretizedMRC, _lower_hull_python, lower_convex_hull
from repro.cache import _native


@pytest.fixture(scope="module")
def native_hull():
    kernels = _native.native_kernels()
    if kernels is None:
        pytest.skip("no C compiler: the Python chain serves the hull here")
    return kernels.lower_convex_hull


def _thirds(draw_values):
    """Staircases of multiples of 1/3, whose differences and products round."""
    return [value / 3 for value in draw_values]


_MAGNITUDE = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
_CURVES = st.one_of(
    # Any finite values, up to 1e12 in magnitude, and length 1 and 2 among them.
    st.lists(_MAGNITUDE, min_size=1, max_size=60),
    # Miss curves: non-increasing, with flat runs.
    st.lists(_MAGNITUDE, min_size=1, max_size=60).map(lambda values: sorted(values, reverse=True)),
    st.lists(st.integers(0, 4), min_size=1, max_size=80).map(lambda steps: sorted(steps, reverse=True)),
    # Staircases built from thirds, descending and arbitrary.
    st.lists(st.integers(-9, 30), min_size=1, max_size=80).map(lambda steps: _thirds(sorted(steps, reverse=True))),
    st.lists(st.integers(-9, 30), min_size=1, max_size=80).map(_thirds),
    # Collinear points, exact and one ulp off.
    st.tuples(st.integers(1, 80), _MAGNITUDE, st.floats(-1e6, 1e6, allow_nan=False)).map(
        lambda args: [args[1] + args[2] * j for j in range(args[0])]
    ),
    st.tuples(st.integers(1, 80), _MAGNITUDE, st.floats(-1e6, 1e6, allow_nan=False), st.integers(0, 2**32)).map(
        lambda args: [
            float(np.nextafter(args[1] + args[2] * j, np.inf if (args[3] >> (j % 32)) & 1 else -np.inf))
            for j in range(args[0])
        ]
    ),
    # Non-finite values: both chains follow IEEE comparisons.
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
)


def _assert_same_hull(native_hull, values):
    values = np.asarray(values, dtype=np.float64)
    want = _lower_hull_python(values)
    got = native_hull(values)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    vertices, hull_values = lower_convex_hull(values)
    np.testing.assert_array_equal(vertices, want)
    np.testing.assert_array_equal(hull_values, values[want])


class TestNativeHull:
    @settings(max_examples=400)
    @given(values=_CURVES)
    def test_differential_against_the_python_chain(self, native_hull, values):
        _assert_same_hull(native_hull, values)

    @pytest.mark.parametrize(
        "values, vertices",
        [
            ([5.0], [0]),
            ([5.0, 1.0], [0, 1]),
            ([1.0, 5.0], [0, 1]),
            ([3.0, 3.0, 3.0, 3.0], [0, 3]),  # constant: the middle points are collinear
            ([4.0, 3.0, 2.0, 1.0, 0.0], [0, 4]),  # collinear: popped on equality
            ([8.0, 8.0, 8.0, 8.0, 1.0], [0, 4]),  # a cliff
            ([10.0, 4.0, 2.0, 1.0], [0, 1, 2, 3]),  # convex
            ([9.0, 9.0, 5.0, 5.0, 2.0, 2.0, 0.0], [0, 2, 4, 6]),  # staircase
            ([1e12, 1e12 - 1, 1e12 - 2, 0.0], [0, 3]),
        ],
        ids=["length-1", "length-2", "length-2-rising", "constant", "collinear", "cliff", "convex", "staircase", "1e12"],
    )
    def test_known_hulls(self, native_hull, values, vertices):
        _assert_same_hull(native_hull, values)
        assert native_hull(np.asarray(values)).tolist() == vertices

    def test_thirds_staircase_rounds_alike(self, native_hull):
        # Every difference of a multiple of 1/3 is rounded; both chains round the same way.
        steps = np.repeat(np.arange(600, 0, -1), 3)
        _assert_same_hull(native_hull, steps / 3)
        _assert_same_hull(native_hull, np.minimum.accumulate(np.sin(np.arange(2000)) / 3 + np.arange(2000, 0, -1) / 3))

    def test_long_miss_curves(self, native_hull, rng):
        for _ in range(50):
            size = int(rng.integers(1, 3000))
            misses = np.minimum.accumulate(np.round(rng.random(size) * 7) / 3 * 10.0 ** rng.integers(0, 12))[::-1]
            _assert_same_hull(native_hull, np.sort(misses)[::-1])


def _exact_hull(values: list[int]) -> list[int]:
    """Lower-hull vertices of integer points by brute force: a point is a vertex
    unless it lies on or above the chord of two points around it."""
    n = len(values)
    return [
        j
        for j in range(n)
        if not any(
            (values[j] - values[a]) * (b - a) >= (values[b] - values[a]) * (j - a)
            for a in range(j)
            for b in range(j + 1, n)
        )
    ]


_INTEGER_CURVES = st.lists(st.integers(-1000, 1000), min_size=1, max_size=30)


class TestExactOracle:
    """On integer points both chains give the exact lower hull."""

    @given(values=_INTEGER_CURVES)
    def test_python_chain(self, values):
        assert _lower_hull_python(np.asarray(values, dtype=np.float64)).tolist() == _exact_hull(values)

    @given(values=_INTEGER_CURVES)
    def test_native_chain(self, native_hull, values):
        assert native_hull(np.asarray(values, dtype=np.float64)).tolist() == _exact_hull(values)


class TestWithoutCompiler:
    """With no native kernels the public function runs the Python chain."""

    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(curves, "native_kernels", lambda: None)

    @pytest.mark.parametrize(
        "values, vertices",
        [
            ([5.0], [0]),
            ([5.0, 1.0], [0, 1]),
            ([3.0, 3.0, 3.0], [0, 2]),
            ([4.0, 3.0, 2.0, 1.0, 0.0], [0, 4]),
            ([8.0, 8.0, 8.0, 8.0, 1.0], [0, 4]),
            ([9.0, 9.0, 5.0, 5.0, 2.0, 2.0, 0.0], [0, 2, 4, 6]),
        ],
    )
    def test_known_hulls(self, no_compiler, values, vertices):
        got, hull_values = lower_convex_hull(np.asarray(values))
        assert got.tolist() == vertices
        assert hull_values.tolist() == [values[v] for v in vertices]

    def test_allocations_match_the_native_path(self, no_compiler, monkeypatch):
        misses = [np.minimum.accumulate(np.repeat(np.arange(90, 0, -1), 3) / 3.0 * scale) for scale in (1, 7, 1e9)]
        discretized = [DiscretizedMRC(misses=m, unit=1, accesses=int(m[0]) + 1) for m in misses]
        python = hull_allocate(discretized, 200)
        monkeypatch.undo()
        assert np.array_equal(hull_allocate(discretized, 200), python)

    def test_rejects_empty_and_2d(self, no_compiler):
        for bad in (np.zeros(0), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                lower_convex_hull(bad)
