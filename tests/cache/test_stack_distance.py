"""Unit tests for the trace-level stack-distance algorithms."""

from __future__ import annotations

import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import reuse_intervals_naive, stack_distances_fenwick, stack_distances_naive

from repro.cache import (
    COLD,
    LRUCache,
    StackDistanceStream,
    hit_counts,
    reuse_intervals,
    stack_distance_histogram,
    stack_distances_vectorized,
    stack_distances_with_previous,
)
from repro.cache import _native
from repro.cache.stack_distance import _stack_distances_with_previous_numpy
from repro.core import random_permutation, stack_distances as periodic_stack_distances
from repro.trace import PeriodicTrace, zipfian_trace

SRC = str(Path(_native.__file__).resolve().parents[2])


class TestReuseIntervals:
    def test_paper_example_abcabc(self):
        # Definition 4: in abcabc the (second) a has interval 2 distinct... the
        # count of accesses strictly between the two a's is 2 here because we
        # assign the interval to the later access: positions 0 and 3.
        intervals = reuse_intervals([0, 1, 2, 0, 1, 2])
        assert intervals.tolist()[:3] == [COLD, COLD, COLD]
        assert intervals.tolist()[3:] == [2, 2, 2]

    def test_adjacent_repeat(self):
        assert reuse_intervals([7, 7]).tolist() == [COLD, 0]

    def test_empty(self):
        assert reuse_intervals([]).size == 0

    def test_rejects_float_trace(self):
        with pytest.raises(TypeError):
            reuse_intervals(np.asarray([0.5, 1.5]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            reuse_intervals(np.zeros((2, 2), dtype=int))


class TestStackDistances:
    """The Fenwick oracle of ``tests/oracles.py``, the reference the fast paths are held to."""

    def test_known_trace(self):
        # a b c c b a: stack distances of the second half are 1, 2, 3
        distances = stack_distances_fenwick([0, 1, 2, 2, 1, 0])
        assert distances.tolist() == [COLD, COLD, COLD, 1, 2, 3]

    def test_abcabc(self):
        distances = stack_distances_fenwick([0, 1, 2, 0, 1, 2])
        assert distances.tolist() == [COLD, COLD, COLD, 3, 3, 3]

    def test_fenwick_matches_naive_on_random_traces(self, rng):
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 300)))
            assert np.array_equal(stack_distances_fenwick(trace), stack_distances_naive(trace))

    def test_matches_periodic_closed_form(self, rng):
        for _ in range(5):
            sigma = random_permutation(20, rng)
            trace = PeriodicTrace(sigma).to_trace().accesses
            measured = stack_distances_fenwick(trace)[20:]
            assert np.array_equal(measured, periodic_stack_distances(sigma))

    def test_repeated_single_item(self):
        distances = stack_distances_fenwick([3] * 5)
        assert distances.tolist() == [COLD, 1, 1, 1, 1]

    def test_empty(self):
        assert stack_distances_fenwick([]).size == 0


class TestVectorizedStackDistances:
    """The loop-free merge-count pass must be bit-identical to the Fenwick one."""

    def test_known_traces(self):
        assert stack_distances_vectorized([0, 1, 2, 2, 1, 0]).tolist() == [COLD, COLD, COLD, 1, 2, 3]
        assert stack_distances_vectorized([0, 1, 2, 0, 1, 2]).tolist() == [COLD, COLD, COLD, 3, 3, 3]
        assert stack_distances_vectorized([3] * 5).tolist() == [COLD, 1, 1, 1, 1]
        assert stack_distances_vectorized([]).size == 0
        assert stack_distances_vectorized([9]).tolist() == [COLD]

    def test_matches_fenwick_on_random_traces(self, rng):
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 300)))
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances_fenwick(trace))

    def test_matches_fenwick_on_zipf_trace(self):
        trace = zipfian_trace(6000, 400, exponent=0.9, rng=4).accesses
        assert np.array_equal(stack_distances_vectorized(trace), stack_distances_fenwick(trace))

    def test_matches_fenwick_on_periodic_retraversals(self, rng):
        for _ in range(5):
            sigma = random_permutation(24, rng)
            trace = PeriodicTrace(sigma).to_trace().accesses
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances_fenwick(trace))

    def test_all_cold_and_power_of_two_padding_edges(self):
        # no reuse arcs at all
        assert stack_distances_vectorized(np.arange(7)).tolist() == [COLD] * 7
        # lengths around powers of two exercise the sentinel padding
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33):
            trace = np.arange(n) % max(1, n // 2)
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances_fenwick(trace))


class TestHistogramAndHits:
    def test_histogram_counts_and_cold(self):
        hist, cold = stack_distance_histogram([0, 1, 2, 2, 1, 0])
        assert cold == 3
        assert hist.tolist() == [1, 1, 1]

    def test_histogram_max_distance_truncation(self):
        hist, cold = stack_distance_histogram([0, 1, 2, 2, 1, 0], max_distance=2)
        assert hist.tolist() == [1, 1]
        assert cold == 3

    def test_hit_counts_match_lru_simulation(self, rng):
        trace = zipfian_trace(300, 30, rng=rng).accesses
        hits = hit_counts(trace)
        for c in (1, 3, 10, 30):
            assert int(hits[c - 1]) == LRUCache(c).run(trace.tolist()).hits

    def test_hit_counts_monotone(self, rng):
        trace = zipfian_trace(200, 25, rng=rng).accesses
        hits = hit_counts(trace)
        assert np.all(np.diff(hits) >= 0)

    def test_hit_counts_custom_max_cache_size(self, rng):
        trace = zipfian_trace(100, 20, rng=rng).accesses
        hits = hit_counts(trace, max_cache_size=5)
        assert hits.size == 5

    def test_hit_counts_empty_trace(self):
        assert hit_counts([]).size == 0

    def test_all_cold_trace(self):
        hits = hit_counts(list(range(10)))
        assert hits.tolist() == [0] * 10


class TestStackDistanceStream:
    def test_single_chunk_equals_one_shot(self, rng):
        trace = zipfian_trace(400, 40, rng=rng).accesses
        assert np.array_equal(StackDistanceStream().feed(trace), stack_distances_vectorized(trace))

    def test_chunked_is_bit_identical_for_every_chunk_size(self, rng):
        trace = zipfian_trace(500, 35, rng=rng).accesses
        want = stack_distances_vectorized(trace)
        for chunk in (1, 2, 3, 7, 64, 499, 500, 1000):
            stream = StackDistanceStream()
            parts = [stream.feed(trace[s : s + chunk]) for s in range(0, trace.size, chunk)]
            assert np.array_equal(np.concatenate(parts), want), f"chunk={chunk}"

    def test_empty_chunks_are_no_ops(self):
        stream = StackDistanceStream()
        assert stream.feed([]).size == 0
        stream.feed([1, 2, 1])
        clock = stream.clock
        assert stream.feed(np.zeros(0, dtype=np.int64)).size == 0
        assert stream.clock == clock

    def test_clock_and_footprint_track_the_stream(self):
        stream = StackDistanceStream()
        stream.feed([5, 5, 6])
        stream.feed([7, 5])
        assert stream.clock == 5
        assert stream.footprint == 3

    def test_cross_chunk_reuse_gets_whole_stream_distance(self):
        stream = StackDistanceStream()
        stream.feed([1, 2])
        # [1, 2, | 2, 3, 2, 1]: distances 1, COLD, 2, 3 for the second chunk
        assert stream.feed([2, 3, 2, 1]).tolist() == [1, COLD, 2, 3]

    def test_rejects_non_integer_and_multidimensional_chunks(self):
        stream = StackDistanceStream()
        with pytest.raises(TypeError):
            stream.feed(np.asarray([1.5, 2.5]))
        with pytest.raises(ValueError):
            stream.feed(np.zeros((2, 2), dtype=np.int64))


class TestStackDistancesWithPrevious:
    def test_previous_positions(self):
        distances, previous = stack_distances_with_previous([4, 7, 4, 4, 7])
        assert previous.tolist() == [-1, -1, 0, 2, 1]
        assert distances.tolist() == [COLD, COLD, 2, 1, 2]

    def test_suffix_identity_behind_per_phase_profiles(self, rng):
        """Accesses whose previous access falls inside a suffix keep their
        whole-stream distance there; earlier reuses become cold — the
        identity the replay engine uses for free oracle profiles."""
        trace = zipfian_trace(300, 25, rng=rng).accesses
        distances, previous = stack_distances_with_previous(trace)
        for start in (0, 1, 57, 150, 299):
            suffix = stack_distances_vectorized(trace[start:])
            adjusted = np.where(previous[start:] >= start, distances[start:], np.int64(COLD))
            assert np.array_equal(adjusted, suffix), f"suffix start={start}"


INT64 = np.iinfo(np.int64)


def _previous_oracle(trace: np.ndarray) -> np.ndarray:
    """Previous-access positions from the reuse intervals (independent of both kernels)."""
    intervals = reuse_intervals_naive(trace)
    positions = np.arange(trace.size, dtype=np.int64)
    return np.where(intervals == COLD, np.int64(-1), positions - intervals - 1)


def _labels(max_size):
    """Label alphabets: small dense, negative, and the int64 extremes."""
    extremes = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])
    return st.one_of(
        st.lists(st.integers(0, 6), max_size=max_size),
        st.lists(st.integers(-40, 40), max_size=max_size),
        st.lists(st.one_of(extremes, st.integers(INT64.min, INT64.max)), max_size=max_size),
    )


@pytest.fixture(scope="module")
def native():
    kernels = _native.native_kernels()
    if kernels is None:
        pytest.skip("no C compiler: the numpy path serves stack distances here")
    return lambda trace: kernels.stack_distances(np.asarray(trace, dtype=np.int64))


class TestNativeKernel:
    """The C Olken kernel against the numpy path and the Fenwick oracle, bit for bit."""

    def _assert_agree(self, native, trace):
        trace = np.asarray(trace, dtype=np.int64)
        distances, previous = native(trace)
        ref_distances, ref_previous = _stack_distances_with_previous_numpy(trace)
        np.testing.assert_array_equal(distances, ref_distances)
        np.testing.assert_array_equal(previous, ref_previous)
        np.testing.assert_array_equal(distances, stack_distances_fenwick(trace))
        np.testing.assert_array_equal(previous, _previous_oracle(trace))
        # The reuse-time pass skips the Fenwick tree but not the table:
        # counts[t - previous[t]], cold ones at 0.
        times = np.where(previous < 0, 0, np.arange(trace.size) - previous)
        want_counts = np.bincount(times, minlength=trace.size + 1)
        np.testing.assert_array_equal(_native.native_kernels().reuse_time_counts(trace), want_counts)

    @given(trace=_labels(300))
    def test_differential_against_numpy_and_fenwick(self, native, trace):
        self._assert_agree(native, trace)

    @pytest.mark.parametrize(
        "trace",
        [
            [],
            [5],
            [INT64.min],
            [INT64.max] * 9,
            [INT64.min, INT64.max, INT64.min, INT64.max, 0, INT64.min],
            [-3, -2, -1, -3, -2, -1, -1],
            [0] * 64,
        ],
        ids=["empty", "length-1", "int64-min", "all-equal-max", "extremes", "negative", "all-equal"],
    )
    def test_edge_traces(self, native, trace):
        self._assert_agree(native, trace)

    @pytest.mark.parametrize("period", [1, 7, 64, 1000])
    def test_sawtooth_and_cyclic_retraversals(self, native, period):
        up = np.arange(period)
        self._assert_agree(native, np.tile(up, 5))  # cyclic: every reuse at distance `period`
        self._assert_agree(native, np.tile(np.concatenate([up, up[::-1]]), 3))  # sawtooth

    def test_table_growth_keeps_results(self, native, rng):
        # Many more distinct labels than the initial table holds.
        trace = rng.integers(-(2**40), 2**40, size=30_000) | 1
        self._assert_agree(native, np.concatenate([trace, trace[::-1], trace]))

    def test_entry_point_uses_the_kernel(self, native):
        trace = zipfian_trace(5000, 300, exponent=0.9, rng=2).accesses
        for got, want in zip(stack_distances_with_previous(trace), native(trace)):
            np.testing.assert_array_equal(got, want)
        assert _native.kernel_name() == "native"

    def test_power_of_two_strided_labels_hash_well(self, native, rng):
        # Labels that are multiples of 2^32 share all their low bits; a hash
        # that takes the slot from the low bits probes one run of the whole
        # footprint per access.  The slot comes from the top bits, so the
        # strided trace costs about what a dense one with the same reuse does.
        dense = rng.integers(0, 1 << 15, size=1 << 17)
        strided = dense << 32

        def seconds(trace):
            native(trace)
            start = time.perf_counter()
            native(trace)
            return time.perf_counter() - start

        assert seconds(strided) < 10 * seconds(dense) + 0.05
        np.testing.assert_array_equal(native(strided)[0], native(dense)[0])


class TestNativeCrc32:
    """The carry-less-multiply CRC-32 against zlib's, for every length and running value."""

    @given(data=st.binary(max_size=700), value=st.integers(0, 2**32 - 1))
    def test_matches_zlib(self, data, value):
        assert _native.crc32(data, value) == zlib.crc32(data, value)

    @pytest.mark.parametrize("length", [63, 64, 65, 79, 80, 127, 128, 1 << 20, (1 << 20) + 13])
    def test_fold_boundaries(self, rng, length):
        data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        assert _native.crc32(data) == zlib.crc32(data)
        assert _native.crc32(data, 0xFFFFFFFF) == zlib.crc32(data, 0xFFFFFFFF)

    def test_arrays_and_running_values(self, rng):
        column = rng.integers(INT64.min, INT64.max, size=72_000)
        assert _native.crc32(column) == zlib.crc32(column.tobytes())
        half = column.size // 2
        assert _native.crc32(column[half:], _native.crc32(column[:half])) == zlib.crc32(column.tobytes())

    def test_numpy_fallback_is_zlib(self, monkeypatch, rng):
        data = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
        monkeypatch.setattr(_native, "native_kernels", lambda: None)  # as on a machine without a compiler
        assert _native.crc32(data, 7) == zlib.crc32(data, 7)


def _tree(root: Path) -> set[str]:
    return {str(path.relative_to(root)) for path in root.rglob("*") if "__pycache__" not in path.parts}


class TestKernelBuild:
    """Loading the kernel: on first call only, cached by digest, and a numpy fallback."""

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """An unresolved loader whose user cache directory is ``tmp_path/cache``."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _native.native_kernels.cache_clear()
        yield tmp_path / "cache" / "repro"
        _native.native_kernels.cache_clear()

    def test_import_compiles_nothing(self):
        code = "import repro.api, repro.cache._native as n; assert n.native_kernels.cache_info().currsize == 0"
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})

    def test_missing_compiler_falls_back_to_numpy(self, fresh, monkeypatch):
        monkeypatch.setattr(_native, "compiler", lambda: ["/nonexistent/bin/cc"])
        package = Path(_native.__file__).resolve().parents[2]
        before = _tree(package)
        trace = zipfian_trace(3000, 200, exponent=0.8, rng=9).accesses
        distances, previous = stack_distances_with_previous(trace)
        assert _native.native_kernels() is None and _native.kernel_name() == "numpy"
        ref_distances, ref_previous = _stack_distances_with_previous_numpy(trace)
        np.testing.assert_array_equal(distances, ref_distances)
        np.testing.assert_array_equal(previous, ref_previous)
        np.testing.assert_array_equal(distances, stack_distances_fenwick(trace))
        assert _tree(package) == before
        assert not any(fresh.iterdir())  # no partial build left behind

    def test_build_is_cached_by_digest(self, fresh):
        if _native.compiler() is None:
            pytest.skip("no C compiler")
        assert _native.kernel_name() == "native"
        built = sorted(path.name for path in fresh.iterdir())
        assert len(built) == 1 and built[0].startswith("olken-") and built[0].endswith(".so")
        assert fresh.stat().st_mode & 0o077 == 0

    def test_unloadable_cached_library_is_rebuilt_privately(self, fresh):
        # As on a home directory shared with a machine of another type.
        if _native.compiler() is None:
            pytest.skip("no C compiler")
        assert _native.kernel_name() == "native"
        (cached,) = fresh.iterdir()
        # Replaced, not rewritten in place: this process still maps the old file.
        junk = fresh / "junk"
        junk.write_bytes(b"not a shared library")
        os.replace(junk, cached)
        _native.native_kernels.cache_clear()
        assert _native.kernel_name() == "native"
        trace = zipfian_trace(3000, 200, exponent=0.8, rng=9).accesses
        np.testing.assert_array_equal(stack_distances_with_previous(trace)[0], stack_distances_fenwick(trace))
        assert sorted(fresh.iterdir()) == [cached]

    def test_world_writable_cache_dir_is_never_used(self, fresh):
        if _native.compiler() is None:
            pytest.skip("no C compiler")
        fresh.mkdir(parents=True)
        fresh.chmod(0o777)
        assert _native.kernel_name() == "native"
        assert not any(fresh.iterdir())
