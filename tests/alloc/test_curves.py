"""The lower convex hull: the native monotone chain against the Python one, bit for bit.

:func:`repro.alloc.curves.lower_convex_hull` runs ``lower_hull`` from the
native kernel library where a C compiler is available and the Python chain
otherwise.  Both evaluate the same cross-product test in the same order, so
every input, including collinear and near-collinear points whose ``>=``
decision rests on the last rounding bit, gets the same vertices from both.
Both hull many concatenated rows in one call, each row as if alone.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hull_allocate_per_tenant

from repro.alloc import PartitionJob, allocators, curves, hull_allocate, run_partition
from repro.alloc.curves import (
    DiscretizedMRC,
    _lower_hull_python,
    discretize_curve,
    discretize_ratios,
    lower_convex_hull,
)
from repro.cache import _native
from repro.cache.mrc import MissRatioCurve
from repro.online import OnlineJob, run_replay
from repro.trace import TenantSpec, sawtooth_retraversal, zipfian_trace
from repro.trace.drift import tenant_churn


@pytest.fixture(scope="module")
def native_hull():
    kernels = _native.native_kernels()
    if kernels is None:
        pytest.skip("no C compiler: the Python chain serves the hull here")
    return lambda values, starts: kernels.lower_convex_hull(values, np.asarray(starts, dtype=np.int64))


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
    want = _lower_hull_python(values, [0])
    got = native_hull(values, [0])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    vertices, hull_values = lower_convex_hull(values, [0])
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
        assert native_hull(np.asarray(values), [0]).tolist() == vertices

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
        assert _lower_hull_python(np.asarray(values, dtype=np.float64), [0]).tolist() == _exact_hull(values)

    @given(values=_INTEGER_CURVES)
    def test_native_chain(self, native_hull, values):
        assert native_hull(np.asarray(values, dtype=np.float64), [0]).tolist() == _exact_hull(values)


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
        got, hull_values = lower_convex_hull(np.asarray(values), [0])
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
                lower_convex_hull(bad, [0])


def _per_row(rows) -> list[int]:
    """Each row's vertices on its own, shifted to the row's place in the concatenation."""
    vertices, offset = [], 0
    for row in rows:
        vertices += (_lower_hull_python(np.asarray(row, dtype=np.float64), [0]) + offset).tolist()
        offset += len(row)
    return vertices


def _concatenated(rows) -> tuple[np.ndarray, np.ndarray]:
    return np.concatenate([np.asarray(row, dtype=np.float64) for row in rows]), np.cumsum([0, *map(len, rows[:-1])])


class TestRowsInOneCall:
    """Concatenated rows hull in one call exactly as each row alone, on both chains."""

    @settings(max_examples=200)
    @given(rows=st.lists(_CURVES, min_size=1, max_size=6))
    def test_python_chain_equals_the_per_row_chain(self, rows):
        values, starts = _concatenated(rows)
        assert _lower_hull_python(values, starts).tolist() == _per_row(rows)
        with mock.patch.object(curves, "native_kernels", lambda: None):
            vertices, hull_values = lower_convex_hull(values, starts)
        assert vertices.tolist() == _per_row(rows)
        np.testing.assert_array_equal(hull_values, values[vertices])

    @settings(max_examples=200)
    @given(rows=st.lists(_CURVES, min_size=1, max_size=6))
    def test_native_chain_equals_the_per_row_chain(self, native_hull, rows):
        values, starts = _concatenated(rows)
        assert native_hull(values, starts).tolist() == _per_row(rows)
        assert lower_convex_hull(values, starts)[0].tolist() == _per_row(rows)

    @pytest.mark.parametrize("starts", [[], [1], [0, 0], [0, 2, 1], [0, 5], [[0]]])
    def test_rejects_bad_row_starts(self, starts):
        with pytest.raises(ValueError, match="row starts"):
            lower_convex_hull(np.arange(5.0), starts)


@st.composite
def _miss_rows(draw):
    """Discretized miss curves for the hull allocator: ragged or one length, flat, one-unit, equal-slope rows."""
    tenants = draw(st.integers(1, 6))
    same = draw(st.integers(1, 25)) if draw(st.booleans()) else None
    rows = []
    for _ in range(tenants):
        length = same or draw(st.integers(1, 25))
        shape = draw(st.sampled_from(["drops", "flat", "linear", "thirds"]))
        top = float(draw(st.integers(1, 60)))
        if shape == "flat":
            row = np.full(length, top)
        elif shape == "linear":  # equal slopes across tenants of one drop
            row = top + 50 - draw(st.sampled_from([1.0, 2.0])) * np.arange(length)
        else:
            drops = draw(st.lists(st.integers(0, 6), min_size=length - 1, max_size=length - 1))
            row = top + 150 - np.concatenate([[0], np.cumsum(drops)]).astype(np.float64)
            row = row / 3 if shape == "thirds" else row
        rows.append(row)
    return rows


class TestHullAllocateDifferential:
    """:func:`hull_allocate` against one hull call per tenant and a Python step per segment."""

    @settings(max_examples=300)
    @given(rows=_miss_rows(), budget=st.integers(0, 160))
    def test_equals_the_per_tenant_oracle(self, rows, budget):
        discretized = [DiscretizedMRC(misses=row, unit=1, accesses=int(row[0])) for row in rows]
        for budget_units in (budget, budget % (len(rows) + 1)):  # also below the tenant count
            want = hull_allocate_per_tenant(discretized, budget_units).tolist()
            assert hull_allocate(discretized, budget_units).tolist() == want
            with mock.patch.object(curves, "native_kernels", lambda: None):
                assert hull_allocate(discretized, budget_units).tolist() == want

    def test_every_call_of_a_replay_and_a_partition_equals_the_oracle(self):
        calls = []

        def captured(curves_in, budget_units):
            allocation = hull_allocate(curves_in, budget_units)
            calls.append(allocation.tolist() == hull_allocate_per_tenant(curves_in, budget_units).tolist())
            return allocation

        tenants = (
            TenantSpec(zipfian_trace(4000, 256, exponent=1.0, rng=7), name="zipf"),
            TenantSpec(sawtooth_retraversal(96).to_trace(), name="saw"),
        )
        with mock.patch.dict(allocators._ALLOCATORS, hull=captured):
            run_replay(tenant_churn(3000, seed=11), OnlineJob(budget=700, window=4000, epoch=1000, rate=0.5))
            run_partition(PartitionJob(tenants=tenants, budget=160, method="hull"))
        assert len(calls) > 10 and all(calls)


@st.composite
def _ratio_matrices(draw):
    """Non-increasing miss-ratio rows of one width, their access counts, a budget and a unit."""
    rows, width = draw(st.integers(0, 5)), draw(st.integers(1, 30))
    level = st.floats(0.0, 1.0)
    ratios = [sorted(draw(st.lists(level, min_size=width, max_size=width)), reverse=True) for _ in range(rows)]
    accesses = draw(st.lists(st.integers(1, 10**6), min_size=rows, max_size=rows))
    budget, unit = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    return np.array(ratios, dtype=np.float64).reshape(rows, width), accesses, budget, unit


class TestDiscretizeMatrix:
    """One multiply over a ratio matrix of non-increasing rows is each row's :func:`discretize_curve`, bit for bit."""

    @settings(max_examples=200)
    @given(case=_ratio_matrices())
    def test_rows_equal_discretize_curve(self, case):
        ratios, accesses, budget, unit = case
        unit = min(unit, budget)
        got = discretize_ratios(ratios, np.asarray(accesses), budget, unit)
        assert len(got) == len(accesses)
        for row, n, curve in zip(ratios, accesses, got):
            want = discretize_curve(MissRatioCurve(ratios=row.copy(), accesses=n), budget, unit=unit)
            assert (curve.unit, curve.accesses) == (want.unit, want.accesses)
            assert curve.misses.tobytes() == want.misses.tobytes()

    @pytest.mark.parametrize(
        "ratios, accesses, message",
        [
            ([[0.5, 0.2], [np.nan, 0.1]], [4, 4], "finite"),
            ([[np.inf, 0.2]], [4], "finite"),
            ([[0.5, 0.2], [0.3, 0.1]], [4, 0], "accesses must be >= 1, got 0"),
        ],
    )
    def test_rejects_what_the_row_constructor_rejects(self, ratios, accesses, message):
        with pytest.raises(ValueError, match=message):
            discretize_ratios(np.array(ratios), accesses, 4, 1)
        with pytest.raises(ValueError, match=message):
            for row, n in zip(ratios, accesses):
                DiscretizedMRC(misses=np.concatenate([[n], np.multiply(row, n)]), unit=1, accesses=n)
