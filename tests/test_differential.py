"""Differential and metamorphic cross-checks between independent implementations.

The repo carries three independent routes to the same answers: the
lane sweep kernels (:mod:`repro.sim.kernels`), the
access-by-access reference simulators (:mod:`repro.cache`) and the
stack-distance algorithms behind :func:`repro.cache.mrc.mrc_from_trace`.
This module pits them against each other:

* a deterministic sweep of policies × capacities × seeds (> 200 cases, the
  acceptance floor, independent of the hypothesis profile in use), asserting
  *exact* agreement between every kernel and its reference simulator;
* hypothesis-generated traces for the same agreements plus the
  stack-distance implementations (vectorised vs. Fenwick vs. naive stack);
* the windowed-SHARDS sketch against the exact MRC on stationary traces
  (MAE ≤ 0.02);
* the batch partitioned-LRU data plane (:mod:`repro.sim.partitioned`)
  against the per-event ``OrderedDict`` reference on hypothesis-generated
  drifting traffic with random reallocation schedules (hits, misses,
  occupancies at shrink boundaries, per-segment counts), and a full online
  replay against the per-event oracle of ``tests/oracles.py`` end to end;
* the replay's batched windowed profiles
  (:class:`~repro.online.windowed.TenantWindows`) against one sketch per
  tenant fed chunk by chunk, every epoch and tenant bit for bit, on the C
  kernels and on the numpy fallbacks;
* the chunked :class:`~repro.cache.stack_distance.StackDistanceStream`,
  :func:`~repro.cache.reuse_intervals` and :func:`~repro.cache.footprint_curve`
  against the oracle loops of ``tests/oracles.py``, on the C kernel and on
  the numpy fallback;
* the symmetric core's inversion counts, Lehmer codes and re-traversal
  distances, all read off one distance pass over ``A σ(A)``, against the
  naive double loop, per-position comprehensions, the Fenwick oracles and
  the paper's Algorithm 1, on the C kernel and on the numpy fallback;
* the same pass over a block of re-traversals ``A P_0 A P_1 ...`` against
  those oracles row by row, and the drivers that sweep ``S_m`` in row
  blocks against a single block;
* metamorphic properties: the optimal partition *value* is invariant under
  tenant order permutation, MRCs are monotone non-increasing in capacity,
  and a windowed profile of a concatenated trace with decay → 0 equals the
  tail window's exact profile.
"""

from __future__ import annotations

from contextlib import contextmanager

import itertools
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PartitionedLRU,
    count_inversions_fenwick,
    count_inversions_naive,
    footprint_curve_naive,
    replay_lanes,
    reuse_intervals_naive,
    sketch_profiles,
    sketches_at,
    stack_distances_fenwick,
    stack_distances_naive,
)

from repro.alloc import DiscretizedMRC, dp_allocate, total_misses
from repro.alloc.partition import PartitionJob, run_partition
from repro.cache import FIFOCache, LRUCache, SetAssociativeCache, footprint_curve, reuse_intervals, stack_distance
from repro.cache.mrc import MissRatioCurve, mrc_from_trace
from repro.core import (
    Permutation,
    algorithm1_paper,
    cache_hit_vector,
    count_inversions,
    inversion_vector,
    left_inversion_counts,
    reuse_distance_histogram,
)
from repro.analysis.experiments import run_fig1_mrc_by_inversion, run_miss_integral
from repro.analysis.poset_stats import cover_degree_by_rank
from repro.core import build_covering_graph, partition_counts_at_level, permutations_by_inversions
from repro.core.hits import _hit_vectors
from repro.core.hits import stack_distances as retraversal_distances
from repro.core.inversions import _retraversal_distances
from repro.core.mahonian import _partitions
from repro.cache.stack_distance import (
    COLD,
    StackDistanceStream,
    stack_distances_vectorized,
    stack_distances_with_previous,
)
from repro.obs import MetricsRegistry, recording
from repro.engine.columnar import split_by_tenant, tenant_positions
from repro.engine.job import ALLOC_METHODS
from repro.engine.lanes import LaneSet
from repro.engine.segments import replay_stops
from repro.online import OnlineJob, WindowedShardsSketch, pooled_curve, run_replay
from repro.online.replay import _windowed_profile
from repro.online.windowed import TenantWindows
from repro.resilience.faults import FaultInjected, FaultPlan, FaultSpec, install_faults
from repro.profiling import shards
from repro.profiling.accuracy import compare_curves
from repro.sim.kernels import (
    _DEVIATE_SALT,
    compact_trace,
    fifo_sweep_hits,
    lru_sweep_hits,
    random_sweep_hits,
    set_associative_sweep_hits,
)
from repro.sim.sweep import SweepJob, run_sweep
from repro.trace import zipfian_trace
from repro.trace.drift import compose_phases, three_phase_pair
from repro.trace.tenancy import TenantSpec

# --------------------------------------------------------------------------- #
# Reference implementations and strategies
# --------------------------------------------------------------------------- #
traces = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=60)
capacity_grids = st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=5, unique=True)


def random_kernel_reference(trace: np.ndarray, capacity: int, seed: int) -> int:
    """Scalar replay of the documented random-kernel semantics (one deviate per access).

    This is an independent, dict-based re-implementation of the lane
    machinery in :func:`repro.sim.kernels.random_sweep_hits`: the same
    pre-drawn shared deviate stream, explicit victim slots, no vectorisation.
    """
    deviates = np.random.default_rng((int(seed), _DEVIATE_SALT)).random(trace.size)
    slots: list[int] = []
    position: dict[int, int] = {}
    hits = 0
    for step, item in enumerate(int(x) for x in trace):
        if item in position:
            hits += 1
            continue
        if len(slots) < capacity:
            position[item] = len(slots)
            slots.append(item)
            continue
        victim_slot = int(deviates[step] * capacity)
        del position[slots[victim_slot]]
        slots[victim_slot] = item
        position[item] = victim_slot
    return hits


def kernel_vs_reference_case(trace: np.ndarray, capacities: np.ndarray, seed: int, ways: int) -> int:
    """Assert every kernel matches its reference on one case; returns checks done."""
    dense, distinct = compact_trace(trace)
    checks = 0

    lru = lru_sweep_hits(trace, capacities)
    fifo = fifo_sweep_hits(dense, capacities, distinct=distinct)
    random_hits = random_sweep_hits(dense, capacities, seed=seed, distinct=distinct)
    sa_caps = capacities * ways
    sa = set_associative_sweep_hits(trace, sa_caps, ways=ways)

    for k, capacity in enumerate(int(c) for c in capacities):
        assert int(lru[k]) == LRUCache(capacity).run(trace.tolist()).hits
        assert int(fifo[k]) == FIFOCache(capacity).run(trace.tolist()).hits
        assert int(random_hits[k]) == random_kernel_reference(dense, capacity, seed)
        assert int(sa[k]) == SetAssociativeCache(capacity, ways).run(trace.tolist()).hits
        checks += 4
    return checks


class TestDeterministicSweep:
    """The fixed-seed grid behind the '>= 200 generated cases' acceptance bar."""

    def test_kernels_match_references_on_generated_grid(self):
        checks = 0
        capacities = np.asarray([1, 2, 3, 5, 8, 13], dtype=np.int64)
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            for footprint, length in ((4, 40), (10, 120), (25, 200)):
                trace = rng.integers(0, footprint, size=length)
                checks += kernel_vs_reference_case(trace, capacities, seed=seed, ways=2)
        assert checks >= 200, f"only {checks} kernel-vs-reference checks ran"

    def test_random_kernel_is_capacity_partition_invariant(self):
        """Splitting the grid across calls (as the sweep pool does) changes nothing."""
        rng = np.random.default_rng(42)
        dense, distinct = compact_trace(rng.integers(0, 30, size=300))
        grid = np.asarray([1, 2, 4, 8, 16, 24], dtype=np.int64)
        together = random_sweep_hits(dense, grid, seed=9, distinct=distinct)
        one_by_one = [
            int(random_sweep_hits(dense, np.asarray([c], dtype=np.int64), seed=9, distinct=distinct)[0])
            for c in grid
        ]
        assert together.tolist() == one_by_one


class TestHypothesisDifferential:
    @given(traces, capacity_grids)
    def test_lru_kernel_matches_reference(self, trace, capacities):
        arr = np.asarray(trace, dtype=np.int64)
        hits = lru_sweep_hits(arr, np.asarray(sorted(capacities), dtype=np.int64))
        for k, capacity in enumerate(sorted(capacities)):
            assert int(hits[k]) == LRUCache(capacity).run(trace).hits

    @given(traces, capacity_grids)
    def test_fifo_kernel_matches_reference(self, trace, capacities):
        dense, distinct = compact_trace(np.asarray(trace, dtype=np.int64))
        hits = fifo_sweep_hits(dense, np.asarray(sorted(capacities), dtype=np.int64), distinct=distinct)
        for k, capacity in enumerate(sorted(capacities)):
            assert int(hits[k]) == FIFOCache(capacity).run(trace).hits

    @given(traces, capacity_grids, st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_kernel_matches_scalar_reference(self, trace, capacities, seed):
        dense, distinct = compact_trace(np.asarray(trace, dtype=np.int64))
        hits = random_sweep_hits(dense, np.asarray(sorted(capacities), dtype=np.int64), seed=seed, distinct=distinct)
        for k, capacity in enumerate(sorted(capacities)):
            assert int(hits[k]) == random_kernel_reference(dense, capacity, seed)

    @given(traces, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
    def test_set_associative_kernel_matches_reference(self, trace, num_sets, ways):
        arr = np.asarray(trace, dtype=np.int64)
        capacity = num_sets * ways
        hits = set_associative_sweep_hits(arr, np.asarray([capacity], dtype=np.int64), ways=ways)
        assert int(hits[0]) == SetAssociativeCache(num_sets, ways).run(trace).hits

    @given(traces)
    def test_stack_distance_implementations_agree(self, trace):
        vectorised = stack_distances_vectorized(trace)
        assert np.array_equal(vectorised, stack_distances_fenwick(trace))
        assert np.array_equal(vectorised, stack_distances_naive(trace))

    @given(traces, st.integers(min_value=1, max_value=16))
    def test_mrc_matches_lru_simulation(self, trace, capacity):
        curve = mrc_from_trace(trace)
        simulated = LRUCache(capacity).run(trace)
        assert curve[capacity] == pytest.approx(simulated.miss_ratio)


class TestWindowedVsExact:
    """Windowed-SHARDS accuracy on stationary traffic (the MAE <= 0.02 bar)."""

    @pytest.mark.parametrize(("exponent", "rate"), [(0.6, 0.4), (0.9, 0.25)])
    def test_windowed_shards_tracks_exact_mrc(self, exponent, rate):
        """Two pooled seeds keep the MAE within 0.02; flatter popularity (lower
        exponent) spreads reuse over more items and needs a higher rate."""
        trace = zipfian_trace(30_000, 2000, exponent=exponent, rng=11).accesses
        window = 15_000
        exact = mrc_from_trace(trace[-window:])
        sketches = []
        for seed in (0, 1):
            sketch = WindowedShardsSketch(window=window, rate=rate, seed=seed)
            sketch.update(trace)
            sketches.append(sketch)
        assert compare_curves(pooled_curve(sketches), exact).mean_absolute_error <= 0.02

    def test_full_rate_windowed_profile_is_exact(self):
        trace = zipfian_trace(4000, 300, exponent=0.7, rng=5).accesses
        sketch = WindowedShardsSketch(window=2000, rate=1.0)
        sketch.update(trace)
        assert compare_curves(sketch.curve(), mrc_from_trace(trace[-2000:])).max_absolute_error == 0.0


# --------------------------------------------------------------------------- #
# Batch partitioned-LRU data plane vs. the OrderedDict reference
# --------------------------------------------------------------------------- #
# The distance kernels under test: C where it builds, and the numpy fallback.
PATHS = ("native", "numpy")
# One replay schedule: interleaved per-segment event batches and (possibly
# shrinking) reallocations, the exact shape the online engine produces.
replay_schedules = st.lists(
    st.tuples(
        st.lists(  # one segment of (tenant, item) events
            st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=12)),
            min_size=0,
            max_size=40,
        ),
        st.one_of(  # an optional resize applied after the segment
            st.none(),
            st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3),
        ),
    ),
    min_size=1,
    max_size=6,
)


def drive_lanes(allocations, schedule, num_tenants=3):
    """Run ``schedule`` through a :class:`LaneSet` and one per-event reference per lane.

    ``schedule`` is a list of ``(events, resizes)``: a segment of ``(tenant,
    item)`` events, then ``{lane: split}`` applied after it (or ``None``).
    The lanes read one whole-trace distance pass per tenant, as the replay
    does.  Asserts every segment's hits and misses and every occupancy, after
    each segment and after each resize, and the lanes' totals at the end.
    """
    events = [event for segment, _resizes in schedule for event in segment]
    items = np.asarray([item for _tenant, item in events], dtype=np.int64)
    tenants = np.asarray([tenant for tenant, _item in events], dtype=np.int64)
    streams = split_by_tenant(items, tenants, num_tenants)
    lanes = LaneSet([stack_distances_vectorized(stream) for stream in streams], allocations)
    references = {lane: PartitionedLRU(split) for lane, split in allocations.items()}
    position = 0
    for segment, resizes in schedule:
        before = {lane: (reference.hits, reference.misses) for lane, reference in references.items()}
        for reference in references.values():
            for tenant, item in segment:
                reference.access(tenant, item)
        counters = {lane: [0, 0] for lane in allocations}
        stop = position + len(segment)
        lanes.advance(items[position:stop], tenants[position:stop], counters)
        position = stop
        for lane, reference in references.items():
            assert counters[lane] == [reference.hits - before[lane][0], reference.misses - before[lane][1]]
            assert lanes.occupancies(lane) == reference.occupancies
        for lane, split in (resizes or {}).items():
            references[lane].resize(split)
            lanes.resize(lane, split)
            # shrink evictions: the occupancy clamp must match the
            # reference's LRU-end evictions block for block
            assert lanes.occupancies(lane) == references[lane].occupancies
    for lane, reference in references.items():
        assert lanes.totals(lane) == (reference.hits, reference.misses)
        assert lanes.miss_ratio(lane) == reference.miss_ratio
        assert lanes.capacities(lane) == reference.capacities
    return lanes


def cycle(items, tenants=(0, 1, 2)):
    """Each item once per tenant, tenants interleaved."""
    return [(tenant, item) for item in items for tenant in tenants]


class TestPartitionedKernelDifferential:
    """The lanes are bit-identical to the per-event reference on every
    schedule of drifting traffic and random reallocations — hits, misses,
    per-segment counts, and the occupancies left behind by shrink evictions —
    with distances from the C kernel and from the numpy fallback."""

    @pytest.mark.parametrize("path", PATHS)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3), replay_schedules)
    def test_lanes_match_ordereddict_reference(self, path, initial, schedule):
        with distance_path(path):
            drive_lanes(
                {"lane": initial},
                [(events, None if resize is None else {"lane": resize}) for events, resize in schedule],
            )

    @pytest.mark.parametrize("path", PATHS)
    def test_capacity_zero_misses_every_access(self, path):
        with distance_path(path):
            lanes = drive_lanes({"lane": [0, 3, 0]}, [(cycle([1, 2, 1, 2]), None), (cycle([1, 2]), None)])
        assert lanes.occupancies("lane") == (0, 2, 0)

    @pytest.mark.parametrize("path", PATHS)
    def test_shrink_to_zero_then_grow(self, path):
        schedule = [
            (cycle([1, 2, 3, 1]), {"lane": [0, 4, 0]}),
            (cycle([1, 2, 3]), {"lane": [4, 4, 4]}),
            (cycle([3, 2, 1, 3, 2, 1]), {"lane": [1, 0, 2]}),
            (cycle([1, 2]), None),
        ]
        with distance_path(path):
            drive_lanes({"lane": [4, 4, 4]}, schedule)

    @pytest.mark.parametrize("path", PATHS)
    def test_tenant_absent_from_a_chunk(self, path):
        schedule = [
            (cycle([1, 2, 3]), {"lane": [1, 2, 2]}),
            (cycle([3, 2, 1, 4], tenants=(0, 2)), {"lane": [2, 1, 2]}),  # tenant 1 idle through a resize
            ([], None),  # no tenant at all
            (cycle([1, 3, 2], tenants=(1,)), None),  # only tenant 1
            (cycle([2, 4, 1]), None),
        ]
        with distance_path(path):
            drive_lanes({"lane": [2, 2, 2]}, schedule)

    @pytest.mark.parametrize("path", PATHS)
    def test_partition_larger_than_the_footprint_never_fills(self, path):
        schedule = [(cycle([1, 2, 3, 2, 1]), None), (cycle([4, 1, 4]), {"lane": [50, 6, 40]}), (cycle([5, 2]), None)]
        with distance_path(path):
            lanes = drive_lanes({"lane": [100, 100, 100]}, schedule)
        assert lanes.occupancies("lane") == (5, 5, 5)  # the footprints

    @pytest.mark.parametrize("path", PATHS)
    def test_one_event_chunks(self, path):
        events = [(0, 1), (1, 7), (0, 2), (0, 1), (2, 3), (0, 3), (1, 7), (0, 2), (2, 3), (0, 1)]
        splits = [[2, 1, 1], [1, 1, 0], [1, 0, 1], None] * 3
        schedule = [([event], split and {"lane": split}) for event, split in zip(events, splits)]
        with distance_path(path):
            drive_lanes({"lane": [2, 1, 1]}, schedule)

    @pytest.mark.parametrize("path", PATHS)
    def test_three_lanes_with_different_splits(self, path):
        rng = np.random.default_rng(9)
        segments = [list(zip(rng.integers(0, 3, 60).tolist(), rng.integers(0, 15, 60).tolist())) for _ in range(5)]
        resizes = [{"adaptive": [2, 6, 4]}, {"oracle": [6, 6, 0]}, None, {"adaptive": [8, 2, 2], "oracle": [4, 4, 4]}]
        allocations = {"static": [4, 4, 4], "adaptive": [6, 2, 4], "oracle": [1, 1, 10]}
        with distance_path(path):
            lanes = drive_lanes(allocations, list(zip(segments, [*resizes, None])))
        assert lanes.capacities("static") == (4, 4, 4)

    @given(traces)
    def test_previous_positions_are_consistent_with_distances(self, trace):
        distances, previous = stack_distances_with_previous(trace)
        arr = np.asarray(trace, dtype=np.int64)
        for position in range(arr.size):
            if distances[position] == COLD:
                assert previous[position] == -1
            else:
                prev = int(previous[position])
                assert arr[prev] == arr[position]
                assert not np.any(arr[prev + 1 : position] == arr[position])


# --------------------------------------------------------------------------- #
# The chunked stream and the pass-derived metrics vs. the oracle loops
# --------------------------------------------------------------------------- #
INT64 = np.iinfo(np.int64)
# A small dense alphabet, negatives, and the int64 extremes.
wide_labels = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([INT64.min, INT64.min + 1, -1, 0, INT64.max - 1, INT64.max]),
)
wide_traces = st.lists(wide_labels, max_size=80)
# Chunk sizes: empty chunks interleaved, and sizes past any trace's length;
# whatever the plan leaves unfed goes in as one last chunk.
chunk_plans = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=8), st.integers(min_value=81, max_value=200)),
    min_size=1,
    max_size=30,
)


@contextmanager
def distance_path(path: str):
    """Serve stack distances by the C kernel (where it builds) or the numpy fallback."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setattr(stack_distance, "native_kernels", lambda: None)
        yield


def _stream_in_chunks(stream: StackDistanceStream, arr: np.ndarray, sizes) -> np.ndarray:
    """Feed ``arr`` in chunks of ``sizes`` (then the rest), checking clock and footprint."""
    parts, seen, consumed = [], set(), 0
    for chunk in np.split(arr, np.minimum(np.cumsum(sizes), arr.size)):
        parts.append(stream.feed(chunk))
        consumed += chunk.size
        seen.update(chunk.tolist())
        assert (stream.clock, stream.footprint) == (consumed, len(seen))
    return np.concatenate(parts)


class TestStreamDifferential:
    """:class:`StackDistanceStream`, :func:`reuse_intervals` and :func:`footprint_curve`
    against the per-access oracle loops, on the C kernel and on the numpy fallback."""

    @pytest.mark.parametrize("path", PATHS)
    @given(trace=wide_traces, plan=chunk_plans)
    def test_streamed_distances_match_the_oracle(self, path, trace, plan):
        arr = np.asarray(trace, dtype=np.int64)
        with distance_path(path):
            streamed = _stream_in_chunks(StackDistanceStream(), arr, plan)
        assert np.array_equal(streamed, stack_distances_fenwick(arr))

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("chunk", [5, 97])
    def test_footprint_far_larger_than_the_chunk(self, path, chunk):
        arr = np.random.default_rng(3).integers(0, 4000, size=12_000)
        with distance_path(path):
            streamed = _stream_in_chunks(StackDistanceStream(), arr, [chunk] * (arr.size // chunk))
        assert np.array_equal(streamed, stack_distances_vectorized(arr))

    @pytest.mark.parametrize("path", PATHS)
    def test_labels_at_the_int64_limits(self, path):
        labels = np.array([INT64.min, INT64.max, -1, 0, INT64.min + 1, INT64.max - 1], dtype=np.int64)
        arr = np.random.default_rng(5).choice(labels, size=300)
        with distance_path(path):
            streamed = _stream_in_chunks(StackDistanceStream(), arr, [0, 1, 7, 0, 400])
        assert np.array_equal(streamed, stack_distances_fenwick(arr))

    @pytest.mark.parametrize("path", PATHS)
    @given(trace=wide_traces)
    def test_reuse_intervals_match_the_dict_loop(self, path, trace):
        with distance_path(path):
            intervals = reuse_intervals(trace)
        assert np.array_equal(intervals, reuse_intervals_naive(trace))

    @pytest.mark.parametrize("path", PATHS)
    @given(trace=st.lists(wide_labels, max_size=40))
    def test_footprint_curve_matches_every_window(self, path, trace):
        with distance_path(path):
            curve = footprint_curve(trace)
        np.testing.assert_allclose(curve, footprint_curve_naive(trace), rtol=0, atol=1e-9)


class TestInversionDifferential:
    """The symmetric core's one distance pass over ``A σ(A)`` against the oracles: inversion counts,
    Lehmer codes, left inversion counts and re-traversal distances, on the C kernel and on numpy."""

    @pytest.mark.parametrize("path", PATHS)
    @given(seq=st.lists(wide_labels, max_size=60))
    def test_sequences_match_the_naive_counts(self, path, seq):
        m = len(seq)
        with distance_path(path):
            total, right, left = count_inversions(seq), inversion_vector(seq), left_inversion_counts(seq)
        assert total == count_inversions_naive(seq)
        assert right.tolist() == [sum(seq[j] < seq[i] for j in range(i + 1, m)) for i in range(m)]
        assert left.tolist() == [sum(seq[i] > seq[j] for i in range(j)) for j in range(m)]

    @pytest.mark.parametrize("path", PATHS)
    @given(word=st.integers(min_value=0, max_value=40).flatmap(lambda m: st.permutations(range(m))))
    def test_permutations_match_the_literal_retraversal(self, path, word):
        m, sigma = len(word), Permutation(word)
        with distance_path(path):
            lehmer, length, distances = sigma.lehmer_code(), sigma.inversions(), retraversal_distances(sigma)
            histogram, hit_vector = reuse_distance_histogram(sigma), cache_hit_vector(sigma)
        assert lehmer == tuple(sum(word[j] < word[i] for j in range(i + 1, m)) for i in range(m))
        assert length == count_inversions_naive(word)
        retraversal = np.concatenate([np.arange(m), np.asarray(word, dtype=np.int64)])
        assert np.array_equal(distances, stack_distances_fenwick(retraversal)[m:])
        rdh, chv = algorithm1_paper(sigma)
        assert np.array_equal(histogram, rdh) and np.array_equal(hit_vector, chv)

    @pytest.mark.parametrize("path", PATHS)
    def test_sixteen_thousand_labels_with_ties(self, path):
        seq = np.random.default_rng(16).integers(-6000, 6000, size=16_384)
        with distance_path(path):
            total, right, left = count_inversions(seq), inversion_vector(seq), left_inversion_counts(seq)
        assert total == count_inversions_fenwick(seq) == int(right.sum()) == int(left.sum())


def per_row_reference(word) -> tuple:
    """ℓ, Lehmer code, hit vector and hit-vector partition of one permutation, by the oracles."""
    m = len(word)
    rdh, chv = algorithm1_paper(word)
    lehmer = [sum(word[j] < word[i] for j in range(i + 1, m)) for i in range(m)]
    parts = sorted((m - d for d in range(1, m) for _ in range(rdh[d - 1])), reverse=True)
    return count_inversions_naive(word), lehmer, chv.tolist(), tuple(parts)


def batched_rows(block: np.ndarray) -> list[tuple]:
    """The same four per row of a ``(k, m)`` block, from one distance pass over ``A P_0 A P_1 ...``."""
    m = block.shape[1]
    distances = _retraversal_distances(block)
    lengths, lehmer, hit_vectors = m * m - distances.sum(axis=1), m - distances, _hit_vectors(distances)
    return list(zip(lengths.tolist(), lehmer.tolist(), hit_vectors.tolist(), _partitions(distances)))


def group_outputs() -> list:
    """Every driver that sweeps ``S_6`` (or one of its levels) in row blocks."""
    return [
        [(ell, [p.one_line for p in group]) for ell, group in permutations_by_inversions(6).items()],
        run_fig1_mrc_by_inversion(6),
        run_fig1_mrc_by_inversion(6, convention="retraversal", max_cache_size=4),
        run_miss_integral(6),
        list(partition_counts_at_level(6, 7).items()),
        cover_degree_by_rank(5),
        list(build_covering_graph(5).nodes(data="rank")),
    ]


class TestBatchedRetraversalDifferential:
    """One distance pass over a block of re-traversals against the per-row oracles: inversion
    numbers, Lehmer codes, hit vectors and partitions, on the C kernel and on numpy."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("m", range(7))
    def test_every_row_of_the_symmetric_group(self, path, m):
        words = list(itertools.permutations(range(m)))
        with distance_path(path):
            rows = batched_rows(np.array(words, dtype=np.int64).reshape(len(words), m))
        assert rows == [per_row_reference(word) for word in words]

    @pytest.mark.parametrize("path", PATHS)
    def test_random_blocks(self, path):
        rng = np.random.default_rng(26)
        for m, k in enumerate([1, 64, *rng.integers(1, 65, size=38).tolist()], start=1):
            block = np.argsort(rng.random((k, m)), axis=1)
            with distance_path(path):
                rows = batched_rows(block)
            assert rows == [per_row_reference(word) for word in block.tolist()]

    @pytest.mark.parametrize("path", PATHS)
    def test_row_blocks_that_do_not_divide_the_group(self, path, monkeypatch):
        with distance_path(path):
            whole = group_outputs()
            monkeypatch.setattr("repro.core.inversions._BLOCK_ROWS", 7)  # divides neither 6! nor 5! nor M(6, 7) = 101
            blocked = group_outputs()
        assert repr(blocked) == repr(whole)


@st.composite
def windowed_replays(draw):
    """A composed trace, its stop schedule and windowed-profile knobs, degenerate cases included.

    Empty tenants and phases, windows shorter than an epoch and longer than the
    trace, length-1 traces, labels at the int64 limits, sampling rates down to
    2**-10, allocation units past a tenant's footprint and budgets below the
    tenant count.
    """
    num_tenants = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=90))
    items = np.asarray(draw(st.lists(wide_labels, min_size=n, max_size=n)), dtype=np.int64)
    ids = np.asarray(draw(st.lists(st.integers(0, num_tenants - 1), min_size=n, max_size=n)), dtype=np.int64)
    boundaries = sorted(set(draw(st.lists(st.integers(min_value=0, max_value=n), max_size=3))) | {0})
    epoch = draw(st.integers(min_value=1, max_value=30))
    window = draw(st.one_of(st.integers(min_value=1, max_value=30), st.integers(min_value=n + 1, max_value=n + 40)))
    knobs = dict(
        window=window,
        decay=draw(st.sampled_from([0.0, 1e-9, 0.002, 0.5])),
        rate=draw(st.sampled_from([1.0, 0.5, 2.0**-10])),
        seed=draw(st.integers(min_value=0, max_value=3)),
    )
    budget = draw(st.integers(min_value=1, max_value=24))
    unit = draw(st.integers(min_value=1, max_value=8))
    return items, ids, num_tenants, boundaries, epoch, knobs, budget, unit


@contextmanager
def kernel_path(path: str):
    """Serve distances and SHARDS sampling by the C kernels (where they build) or the numpy fallbacks."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setattr(stack_distance, "native_kernels", lambda: None)
            patch.setattr(shards, "native_kernels", lambda: None)
        yield


def _tenant_profiles(windows, end, budget, unit):
    """The replay's windowed profile per tenant: ``(curve, discretization)``, curve ``None`` for no traffic."""
    tenants, ratios, discretized = _windowed_profile(windows, end, budget, unit)
    rows = dict(zip(tenants, ratios))
    return [
        (None if t not in rows else MissRatioCurve(ratios=rows[t].copy(), accesses=curve.accesses), curve)
        for t, curve in enumerate(discretized)
    ]


class TestWindowedProfileDifferential:
    """The replay's batched windowed profiles against one sketch per tenant fed chunk by chunk:
    every epoch and tenant, curve and discretization bit for bit, on the C kernels and on numpy."""

    @pytest.mark.parametrize("path", PATHS)
    @given(case=windowed_replays(), data=st.data())
    def test_batched_profiles_match_chunk_fed_sketches(self, path, case, data):
        items, ids, num_tenants, boundaries, epoch, knobs, budget, unit = case
        stops, ends = replay_stops(items.size, epoch, boundaries)
        with kernel_path(path):
            windows = TenantWindows(items, tenant_positions(ids, num_tenants), stops, ends, *knobs.values())
            oracle = sketch_profiles(items, ids, num_tenants, stops, ends, *knobs.values(), budget, unit)
            for end in sorted(ends):
                expected, held = oracle[end]
                assert windows.retained[end] == held
                for (curve, discretized), (want_curve, want) in zip(
                    _tenant_profiles(windows, end, budget, unit), expected, strict=True
                ):
                    assert (curve is None) == (want_curve is None)
                    assert curve is None or curve == want_curve
                    assert (discretized.unit, discretized.accesses) == (want.unit, want.accesses)
                    assert discretized.misses.tobytes() == want.misses.tobytes()
            # The oracle's own resume semantics: sketches rebuilt from the window's
            # first chunk hold exactly what the sketches fed from the start hold.
            stop = data.draw(st.sampled_from(sorted(ends)))
            rebuilt = sketches_at(items, ids, num_tenants, stops, stop, *knobs.values())
            assert sum(sketch.sampled for sketch in rebuilt) == oracle[stop][1]

    @pytest.mark.parametrize("path", PATHS)
    def test_replay_sized_case(self, path):
        """A replay-sized case: three phases, 4,500 references, a sampled and decayed window, unit 4."""
        workload = three_phase_pair(1500, seed=11)
        composed = workload.composed
        items, ids, num_tenants = composed.trace.accesses, composed.tenant_ids, composed.num_tenants
        stops, ends = replay_stops(items.size, 400, workload.boundaries)
        knobs = dict(window=1200, decay=0.002, rate=0.5, seed=1)
        with kernel_path(path):
            windows = TenantWindows(items, tenant_positions(ids, num_tenants), stops, ends, *knobs.values())
            oracle = sketch_profiles(items, ids, num_tenants, stops, ends, *knobs.values(), 300, 4)
            for end in sorted(ends):
                got = _tenant_profiles(windows, end, 300, 4)
                assert [c for c, _ in got] == [c for c, _ in oracle[end][0]]
                assert [d.misses.tobytes() for _, d in got] == [d.misses.tobytes() for _, d in oracle[end][0]]


@st.composite
def drifting_replays(draw):
    """A small drifting workload and an online job over it, degenerate cases included.

    Tenants absent from a phase, length-1 phases, budgets below the tenant
    count, allocation units past a tenant's footprint, decayed and undecayed
    windows and sampling rates below 1.
    """
    num_tenants = draw(st.integers(min_value=1, max_value=4))
    num_phases = draw(st.integers(min_value=1, max_value=4))
    stream = st.one_of(st.none(), st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=25))
    streams = [[draw(stream) for _ in range(num_phases)] for _ in range(num_tenants)]
    for tenant in streams:  # every tenant is active in some phase...
        if all(s is None for s in tenant):
            tenant[0] = [0]
    for p in range(num_phases):  # ...and every phase has an active tenant
        if all(tenant[p] is None for tenant in streams):
            streams[0][p] = [1]
    workload = compose_phases(
        streams,
        names=[f"t{t}" for t in range(num_tenants)],
        rates=[draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(num_tenants)],
        seed=draw(st.integers(min_value=0, max_value=3)),
    )
    budget = draw(st.integers(min_value=1, max_value=24))
    job = OnlineJob(
        budget=budget,
        window=draw(st.integers(min_value=1, max_value=60)),
        epoch=draw(st.integers(min_value=1, max_value=30)),
        method=draw(st.sampled_from(ALLOC_METHODS)),
        decay=draw(st.sampled_from([0.0, 0.002, 0.5])),
        rate=draw(st.sampled_from([1.0, 0.5, 0.25])),
        move_cost=draw(st.sampled_from([0.0, 1.0])),
        threshold=draw(st.sampled_from([0.01, 0.1])),
        hysteresis=draw(st.integers(min_value=1, max_value=2)),
        realloc_epochs=draw(st.integers(min_value=1, max_value=3)),
        unit=draw(st.integers(min_value=1, max_value=min(budget, 8))),
    )
    return workload, job


class TestReplayEngineDifferential:
    def test_batch_and_reference_engines_agree_end_to_end(self):
        """A full online run's static and oracle allocations match
        from-scratch profiles, and all three lanes match the per-event
        OrderedDict oracle on the recorded schedules, per epoch and in
        aggregate."""
        workload = three_phase_pair(3000, seed=7)
        job = OnlineJob(budget=600, window=3000, epoch=1000, method="hull", rate=0.5)
        replay_lanes(workload, run_replay(workload, job), job)

    @settings(max_examples=100)
    @given(case=drifting_replays(), data=st.data())
    def test_small_drifting_workloads(self, case, data):
        """On small random workloads the lanes match the per-event oracle, a run
        killed after a drawn snapshot resumes to the same result, and metrics
        recording changes nothing."""
        workload, job = case
        result = run_replay(workload, job)
        replay_lanes(workload, result, job)
        step = data.draw(st.integers(min_value=1, max_value=len(result.epochs)))
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=step, kind="error"),))
        with tempfile.TemporaryDirectory() as store:
            with install_faults(plan), pytest.raises(FaultInjected):
                run_replay(workload, job, checkpoint_dir=store)
            assert run_replay(workload, job, checkpoint_dir=store, resume=True) == result
        with recording(MetricsRegistry()):
            assert run_replay(workload, job) == result

    def test_resume_at_every_epoch_keeps_settling(self):
        """Two tenants swap a 12- and a 3-item loop.  Epoch 2 flags the swap and
        epoch 3, off the every-4th cadence, re-partitions only because the
        controller is still settling: a resume from epoch 2's snapshot must
        restore that flag, and a kill after any snapshot resumes to the same run."""

        def loop(size, first=0):
            return (np.arange(60) % size + first).tolist()

        workload = compose_phases([[loop(12), loop(3, 100)], [loop(3), loop(12, 100)]], names=["a", "b"], seed=0)
        job = OnlineJob(budget=15, window=80, epoch=40, threshold=0.1, hysteresis=2)
        result = run_replay(workload, job)
        settled = result.epochs[3]
        assert settled.reallocated and not settled.phase_change and result.epochs[2].phase_change
        assert 3 % job.realloc_epochs
        for step in range(1, len(result.epochs) + 1):
            plan = FaultPlan((FaultSpec(site="online.checkpoint", index=step, kind="error"),))
            with tempfile.TemporaryDirectory() as store:
                with install_faults(plan), pytest.raises(FaultInjected):
                    run_replay(workload, job, checkpoint_dir=store)
                assert run_replay(workload, job, checkpoint_dir=store, resume=True) == result, f"killed after {step}"


# --------------------------------------------------------------------------- #
# Metrics recording is purely observational
# --------------------------------------------------------------------------- #
class TestMetricsDifferential:
    """Every instrumented engine returns bit-identical results whether a
    metrics registry is recording or not — observation never perturbs."""

    def test_online_replay_identical_with_metrics_on(self):
        workload = three_phase_pair(1500, seed=3)
        job = OnlineJob(budget=300, window=1500, epoch=500, method="hull", rate=0.5)
        plain = run_replay(workload, job)
        registry = MetricsRegistry()
        with recording(registry):
            recorded = run_replay(workload, job)
        assert recorded.rows() == plain.rows()
        assert recorded.summary() == plain.summary()
        assert recorded.oracle_allocations == plain.oracle_allocations
        # ...while the registry really did observe the run
        assert len(registry.series("online.epochs")) == len(plain.epochs)
        snapshot = registry.snapshot()
        assert any(name == "online.events" for _kind, name, _labels in snapshot)
        assert any(name == "replay.lane_refs" for _kind, name, _labels in snapshot)
        # The epoch decision's steps each have a span.
        spans = {name for kind, name, _labels in snapshot if kind == "span"}
        assert {"online.window_profile", "online.detector", "online.controller"} <= spans

    def test_sweep_identical_with_metrics_on(self):
        trace = zipfian_trace(5000, 400, exponent=0.8, rng=2).accesses
        job = SweepJob(trace=trace, policies=("lru", "fifo", "random"), capacities=(4, 16, 64))
        plain = run_sweep(job)
        registry = MetricsRegistry()
        with recording(registry):
            recorded = run_sweep(job)
        assert recorded.rows() == plain.rows()
        assert registry.counter("sweep.lane_refs", policy="lru").value == trace.size * 3

    def test_sweep_with_pool_identical_with_metrics_on(self):
        """The timed pool wrapper changes neither results nor their order."""
        trace = zipfian_trace(3000, 300, exponent=0.9, rng=4).accesses
        job = SweepJob(trace=trace, policies=("lru", "fifo", "random", "set-associative"), capacities=(8, 32))
        plain = run_sweep(job, workers=1)
        registry = MetricsRegistry()
        with recording(registry):
            recorded = run_sweep(job, workers=2)
        assert recorded.rows() == plain.rows()
        snapshot = registry.snapshot()
        assert any(name == "pool.task" for _kind, name, _labels in snapshot)

    def test_partition_identical_with_metrics_on(self):
        tenants = (
            TenantSpec(zipfian_trace(2000, 300, exponent=0.9, rng=1), name="zipf"),
            TenantSpec(zipfian_trace(2000, 150, exponent=0.7, rng=2), name="flat", rate=2.0),
        )
        job = PartitionJob(tenants=tenants, budget=256, method="dp", mode="shards", rate=0.2)
        plain = run_partition(job)
        registry = MetricsRegistry()
        with recording(registry):
            recorded = run_partition(job)
        assert recorded.rows() == plain.rows()
        assert recorded.summary() == plain.summary()
        assert registry.counter("partition.tenants", method="dp").value == 2


# --------------------------------------------------------------------------- #
# Metamorphic properties
# --------------------------------------------------------------------------- #
monotone_curves = st.lists(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
    min_size=1,
    max_size=4,
).map(
    lambda rows: [
        DiscretizedMRC(
            misses=np.sort(np.asarray(row, dtype=np.float64))[::-1].copy(),
            unit=1,
            accesses=max(int(max(row)), 1),
        )
        for row in rows
    ]
)


class TestMetamorphic:
    @given(monotone_curves, st.integers(min_value=0, max_value=20), st.randoms(use_true_random=False))
    def test_optimal_partition_value_invariant_under_tenant_order(self, curves, budget, shuffler):
        """Permuting the tenants permutes the allocation but not the optimum."""
        baseline = total_misses(curves, dp_allocate(curves, budget))
        order = list(range(len(curves)))
        shuffler.shuffle(order)
        permuted = [curves[i] for i in order]
        assert total_misses(permuted, dp_allocate(permuted, budget)) == pytest.approx(baseline)

    @given(traces)
    def test_mrc_monotone_nonincreasing_in_capacity(self, trace):
        ratios = mrc_from_trace(trace).as_array()
        assert np.all(np.diff(ratios) <= 1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=80), st.data())
    def test_windowed_sketch_monotone_nonincreasing(self, trace, data):
        window = data.draw(st.integers(min_value=1, max_value=len(trace)))
        sketch = WindowedShardsSketch(window=window, rate=1.0)
        sketch.update(trace)
        ratios = sketch.curve().as_array()
        assert np.all(np.diff(ratios) <= 1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=60),
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60),
    )
    def test_windowed_concat_with_vanishing_decay_equals_tail_exact(self, head, tail):
        """window = len(tail), decay -> 0: the head cannot influence the profile."""
        for decay in (0.0, 1e-9):
            sketch = WindowedShardsSketch(window=len(tail), rate=1.0, decay=decay)
            sketch.update(np.asarray(head + tail, dtype=np.int64))
            comparison = compare_curves(sketch.curve(), mrc_from_trace(tail))
            assert comparison.max_absolute_error <= 1e-6

    @given(traces, st.integers(min_value=1, max_value=16))
    @settings(max_examples=30)
    def test_windowed_profile_invariant_to_history_before_the_window(self, tail, pad_items):
        """Any prefix older than the window leaves the sketch state unchanged."""
        rng = np.random.default_rng(0)
        head = rng.integers(0, pad_items, size=100)
        direct = WindowedShardsSketch(window=len(tail), rate=1.0)
        direct.update(np.asarray(tail, dtype=np.int64))
        with_history = WindowedShardsSketch(window=len(tail), rate=1.0)
        with_history.update(np.concatenate([head, np.asarray(tail, dtype=np.int64)]))
        assert direct.curve() == with_history.curve()
