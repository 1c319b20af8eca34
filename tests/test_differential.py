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
* metamorphic properties: the optimal partition *value* is invariant under
  tenant order permutation, MRCs are monotone non-increasing in capacity,
  and a windowed profile of a concatenated trace with decay → 0 equals the
  tail window's exact profile.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PartitionedLRU,
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
from repro.cache.mrc import mrc_from_trace
from repro.cache.stack_distance import (
    COLD,
    StackDistanceStream,
    stack_distances_vectorized,
    stack_distances_with_previous,
)
from repro.obs import MetricsRegistry, recording
from repro.engine.columnar import tenant_positions
from repro.engine.segments import replay_stops
from repro.online import OnlineJob, WindowedShardsSketch, pooled_curve, run_replay
from repro.online.replay import _windowed_profile
from repro.online.windowed import TenantWindows
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
from repro.engine import TenantDistanceStreams
from repro.sim.partitioned import BatchPartitionedLRU
from repro.sim.sweep import SweepJob, run_sweep
from repro.trace import zipfian_trace
from repro.trace.drift import three_phase_pair
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


class TestPartitionedKernelDifferential:
    """The batch kernel is bit-identical to the per-event reference on every
    schedule of drifting traffic and random reallocations — hits, misses,
    per-segment counts, and the occupancies left behind by shrink evictions."""

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3), replay_schedules)
    def test_batch_kernel_matches_ordereddict_reference(self, initial, schedule):
        reference = PartitionedLRU(initial)
        batch = BatchPartitionedLRU(initial)
        streams = TenantDistanceStreams(3)
        for events, resize in schedule:
            before = (reference.hits, reference.misses)
            for tenant, item in events:
                reference.access(tenant, item)
            items = np.asarray([item for _tenant, item in events], dtype=np.int64)
            tenants = np.asarray([tenant for tenant, _item in events], dtype=np.int64)
            segment_hits, segment_misses = batch.run_segment(streams.feed(items, tenants))
            assert segment_hits == reference.hits - before[0]
            assert segment_misses == reference.misses - before[1]
            assert batch.occupancies == reference.occupancies
            if resize is not None:
                reference.resize(resize)
                batch.resize(resize)
                # shrink evictions: the kernel's occupancy clamp must match
                # the reference's LRU-end evictions block for block
                assert batch.occupancies == reference.occupancies
        assert (batch.hits, batch.misses) == (reference.hits, reference.misses)

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
PATHS = ("native", "numpy")


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
                    _windowed_profile(windows, end, budget, unit), expected, strict=True
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
                got = _windowed_profile(windows, end, 300, 4)
                assert [c for c, _ in got] == [c for c, _ in oracle[end][0]]
                assert [d.misses.tobytes() for _, d in got] == [d.misses.tobytes() for _, d in oracle[end][0]]


class TestReplayEngineDifferential:
    def test_batch_and_reference_engines_agree_end_to_end(self):
        """A full online run's static and oracle allocations match
        from-scratch profiles, and all three lanes match the per-event
        OrderedDict oracle on the recorded schedules, per epoch and in
        aggregate."""
        workload = three_phase_pair(3000, seed=7)
        job = OnlineJob(budget=600, window=3000, epoch=1000, method="hull", rate=0.5)
        replay_lanes(workload, run_replay(workload, job), job)


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
