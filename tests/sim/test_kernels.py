"""Cross-validation of the FIFO/random lane kernels and the set-associative kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache._native import native_kernels
from repro.cache.fifo import FIFOCache
from repro.cache.random_policy import RandomCache
from repro.cache.set_associative import SetAssociativeCache
from repro.core.permutation import Permutation
from repro.sim import (
    compact_trace,
    fifo_sweep_hits,
    random_sweep_hits,
    set_associative_sweep_hits,
)
from repro.sim import kernels
from repro.sim.kernels import _DEVIATE_SALT, _fifo_lanes_numpy, _random_lanes_numpy
from repro.trace.generators import zipfian_trace
from repro.trace.trace import PeriodicTrace


@pytest.fixture
def zipf_dense():
    trace = zipfian_trace(3000, 96, exponent=0.9, rng=11).accesses
    return compact_trace(trace)


class TestCompactTrace:
    def test_densifies_sparse_labels(self):
        dense, distinct = compact_trace(np.array([100, 7, 100, 9_999_999, 7]))
        assert distinct == 3
        assert dense.max() == 2
        # identity structure preserved: equal labels stay equal, order kept
        assert dense[0] == dense[2] and dense[1] == dense[4]
        assert len(set(dense[:2])) == 2

    def test_rejects_empty_and_non_integer(self):
        with pytest.raises(ValueError):
            compact_trace(np.array([], dtype=np.int64))
        with pytest.raises(TypeError):
            compact_trace(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            compact_trace(np.zeros((2, 2), dtype=np.int64))


class TestFIFOKernel:
    def test_bit_identical_to_fifo_replay(self, zipf_dense):
        dense, distinct = zipf_dense
        capacities = np.arange(1, 97, 3)
        kernel = fifo_sweep_hits(dense, capacities, distinct=distinct)
        for capacity, hits in zip(capacities, kernel):
            assert hits == FIFOCache(int(capacity)).run(dense.tolist()).hits

    def test_periodic_trace_bit_identical(self):
        trace = PeriodicTrace(Permutation([3, 1, 4, 0, 2, 5])).to_trace().accesses
        dense, distinct = compact_trace(trace)
        capacities = np.arange(1, 7)
        kernel = fifo_sweep_hits(dense, capacities, distinct=distinct)
        for capacity, hits in zip(capacities, kernel):
            assert hits == FIFOCache(int(capacity)).run(dense.tolist()).hits

    def test_lane_independence(self, zipf_dense):
        """Each capacity lane is unaffected by which other lanes run alongside."""
        dense, distinct = zipf_dense
        full = fifo_sweep_hits(dense, np.arange(1, 33), distinct=distinct)
        alone = fifo_sweep_hits(dense, np.array([17]), distinct=distinct)
        assert alone[0] == full[16]


class TestRandomKernel:
    def test_deterministic_given_seed(self, zipf_dense):
        dense, distinct = zipf_dense
        capacities = np.arange(1, 49)
        a = random_sweep_hits(dense, capacities, seed=3, distinct=distinct)
        b = random_sweep_hits(dense, capacities, seed=3, distinct=distinct)
        assert np.array_equal(a, b)

    def test_partition_invariant(self, zipf_dense):
        """Any split of the grid reproduces the same per-capacity hits."""
        dense, distinct = zipf_dense
        capacities = np.arange(1, 49)
        full = random_sweep_hits(dense, capacities, seed=5, distinct=distinct)
        pieces = [random_sweep_hits(dense, chunk, seed=5, distinct=distinct) for chunk in np.array_split(capacities, 7)]
        assert np.array_equal(full, np.concatenate(pieces))

    def test_capacity_at_footprint_only_cold_misses(self, zipf_dense):
        dense, distinct = zipf_dense
        hits = random_sweep_hits(dense, np.array([distinct]), seed=0, distinct=distinct)
        assert hits[0] == dense.size - distinct

    def test_statistics_match_random_cache(self, zipf_dense):
        """The kernel's hit-ratio distribution matches RandomCache's (no bias).

        Guards the deviate-stream design: pre-drawn per-access deviates are
        only distributionally equivalent to eviction-time draws while the
        stream is independent of the trace, which the salted seeding ensures
        even when trace and sweep share an integer seed.
        """
        dense, distinct = zipf_dense
        seeds = range(12)
        kernel = [int(random_sweep_hits(dense, np.array([16]), seed=s, distinct=distinct)[0]) for s in seeds]
        replay = [RandomCache(16, rng=s).run(dense.tolist()).hits for s in seeds]
        kernel_mean = np.mean(kernel) / dense.size
        replay_mean = np.mean(replay) / dense.size
        assert abs(kernel_mean - replay_mean) < 0.02


class TestSetAssociativeKernel:
    def test_bit_identical_to_model_replay(self, zipf_dense):
        dense, _ = zipf_dense
        ways = 4
        capacities = np.array([4, 8, 16, 32, 64, 96])
        kernel = set_associative_sweep_hits(dense, capacities, ways=ways)
        for capacity, hits in zip(capacities, kernel):
            model = SetAssociativeCache(int(capacity) // ways, ways)
            assert hits == model.run(dense.tolist()).hits

    def test_direct_mapped_and_fully_associative_extremes(self, zipf_dense):
        dense, _ = zipf_dense
        direct = set_associative_sweep_hits(dense, np.array([16]), ways=1)
        model = SetAssociativeCache(16, 1)
        assert direct[0] == model.run(dense.tolist()).hits
        # one set of `capacity` ways degenerates to fully-associative LRU
        fully = set_associative_sweep_hits(dense, np.array([16]), ways=16)
        model = SetAssociativeCache(1, 16)
        assert fully[0] == model.run(dense.tolist()).hits

    def test_rejects_non_multiple_capacities(self, zipf_dense):
        dense, _ = zipf_dense
        with pytest.raises(ValueError):
            set_associative_sweep_hits(dense, np.array([6]), ways=4)
        with pytest.raises(ValueError):
            set_associative_sweep_hits(dense, np.array([4]), ways=0)


@pytest.fixture(params=["native", "numpy"])
def lane_path(request, monkeypatch):
    """Run the public lane kernels through the C loop, then through the numpy fallback."""
    if request.param == "numpy":
        monkeypatch.setattr(kernels, "native_kernels", lambda: None)  # as on a machine without a compiler
    elif native_kernels() is None:
        pytest.skip("no C compiler: the numpy loops serve the lane kernels here")
    return request.param


@pytest.fixture(scope="module")
def native():
    lanes = native_kernels()
    if lanes is None:
        pytest.skip("no C compiler: the numpy loops serve the lane kernels here")
    return lanes


def _deviates(size, seed=0):
    return np.random.default_rng((seed, _DEVIATE_SALT)).random(size)


class TestLaneInputs:
    @pytest.mark.parametrize("kernel", [fifo_sweep_hits, random_sweep_hits])
    def test_negative_label_rejected(self, lane_path, kernel):
        # FIFOCache(1) scores 0 here; a negative index would alias the last item.
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            kernel(np.array([-1, 0, -1, 0]), [1])

    @pytest.mark.parametrize("kernel", [fifo_sweep_hits, random_sweep_hits])
    def test_distinct_below_largest_label_rejected(self, lane_path, kernel):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            kernel(np.array([0, 3, 1, 3]), [2], distinct=2)

    def test_random_slots_sized_by_footprint(self, lane_path):
        trace = np.array([0, 1, 0, 1])
        hits = random_sweep_hits(trace, [2**33], distinct=2)
        assert hits.tolist() == [trace.size - 2]  # only the cold misses

    def test_capacity_far_above_footprint_only_cold_misses(self, lane_path, zipf_dense):
        dense, distinct = zipf_dense
        caps = np.array([distinct + 1, 2**40, np.iinfo(np.int64).max])
        want = [dense.size - distinct] * caps.size
        assert fifo_sweep_hits(dense, caps, distinct=distinct).tolist() == want
        assert random_sweep_hits(dense, caps, distinct=distinct).tolist() == want


_EDGE_CASES = {
    "length-1": (np.array([0]), [1, 2]),
    "single-item": (np.zeros(50, dtype=np.int64), [1, 3]),
    "capacity-1": (np.tile(np.arange(5), 7), [1]),
    "capacity-footprint": (np.tile(np.arange(9), 4), [9]),
    "far-above-footprint": (np.tile(np.arange(6), 5), [7, 2**33, np.iinfo(np.int64).max]),
    "64-lanes": (np.random.default_rng(3).integers(0, 90, size=2000), list(range(1, 129, 2))),
    "cyclic": (np.tile(np.arange(40), 6), [1, 20, 39, 40, 41]),
    "sawtooth": (np.tile(np.concatenate([np.arange(40), np.arange(40)[::-1]]), 3), [1, 20, 39, 40, 41]),
}


class TestNativeLanes:
    """The C lane loops against the numpy loops, bit for bit."""

    def _assert_agree(self, native, trace, capacities, seed=0):
        trace = np.asarray(trace, dtype=np.int64)
        caps = np.asarray(capacities, dtype=np.int64)
        distinct = int(trace.max()) + 1
        deviates = _deviates(trace.size, seed)
        np.testing.assert_array_equal(
            native.fifo_lanes(trace, caps, distinct), _fifo_lanes_numpy(trace, caps, distinct)
        )
        np.testing.assert_array_equal(
            native.random_lanes(trace, caps, distinct, deviates),
            _random_lanes_numpy(trace, caps, distinct, deviates),
        )

    @given(
        trace=st.lists(st.integers(0, 20), min_size=1, max_size=300),
        capacities=st.lists(st.integers(1, 30), min_size=1, max_size=8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_differential_against_numpy(self, native, trace, capacities, seed):
        self._assert_agree(native, trace, capacities, seed)

    @pytest.mark.parametrize("case", list(_EDGE_CASES), ids=list(_EDGE_CASES))
    def test_edge_cases(self, native, case):
        trace, capacities = _EDGE_CASES[case]
        self._assert_agree(native, trace, capacities)

    def test_fifo_matches_fifo_cache_at_every_capacity(self, native, zipf_dense):
        dense, distinct = zipf_dense
        capacities = np.arange(1, distinct + 2)
        hits = native.fifo_lanes(dense, capacities, distinct)
        for capacity, got in zip(capacities, hits):
            assert got == FIFOCache(int(capacity)).run(dense.tolist()).hits

    def test_random_partition_invariant(self, native, zipf_dense):
        dense, distinct = zipf_dense
        capacities = np.arange(1, 49)
        deviates = _deviates(dense.size, 5)
        full = native.random_lanes(dense, capacities, distinct, deviates)
        pieces = [native.random_lanes(dense, chunk, distinct, deviates) for chunk in np.array_split(capacities, 7)]
        np.testing.assert_array_equal(full, np.concatenate(pieces))

    def test_public_kernels_identical_through_the_fallback(self, native, monkeypatch, zipf_dense):
        dense, distinct = zipf_dense
        capacities = np.arange(1, 97, 5)
        fifo = fifo_sweep_hits(dense, capacities, distinct=distinct)
        rand = random_sweep_hits(dense, capacities, seed=4, distinct=distinct)
        monkeypatch.setattr(kernels, "native_kernels", lambda: None)  # as on a machine without a compiler
        np.testing.assert_array_equal(fifo_sweep_hits(dense, capacities, distinct=distinct), fifo)
        np.testing.assert_array_equal(random_sweep_hits(dense, capacities, seed=4, distinct=distinct), rand)
