"""Unit tests for the batch partitioned-LRU replay data plane."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import PartitionedLRU

from repro.cache.stack_distance import COLD, StackDistanceStream, stack_distances_vectorized
from repro.engine import PrecomputedTenantDistances, TenantDistanceStreams, split_by_tenant
from repro.sim.partitioned import BatchPartitionedLRU, partitioned_lru_segment, replay_partitioned
from repro.trace import as_streaming


class TestPartitionedLRUSegment:
    def test_full_partition_is_threshold_count(self):
        distances = np.asarray([1, 2, 3, COLD, 2], dtype=np.int64)
        misses, occupancy = partitioned_lru_segment(distances, capacity=2, occupancy=2)
        assert (misses, occupancy) == (2, 2)  # d=3 and COLD miss

    def test_cold_start_warmup_matches_reference(self):
        trace = [5, 6, 5, 7, 6, 5, 8, 7]
        distances = stack_distances_vectorized(trace)
        reference = PartitionedLRU([2])
        for item in trace:
            reference.access(0, item)
        misses, occupancy = partitioned_lru_segment(distances, capacity=2, occupancy=0)
        assert misses == reference.misses
        assert occupancy == reference.occupancies[0]

    def test_zero_capacity_misses_everything(self):
        distances = stack_distances_vectorized([1, 1, 1])
        assert partitioned_lru_segment(distances, capacity=0, occupancy=0) == (3, 0)

    def test_empty_segment_is_a_no_op(self):
        assert partitioned_lru_segment(np.zeros(0, dtype=np.int64), capacity=4, occupancy=2) == (0, 2)

    def test_partition_that_never_fills_reports_final_occupancy(self):
        distances = stack_distances_vectorized([1, 2, 1, 2])  # 2 cold misses, then hits
        misses, occupancy = partitioned_lru_segment(distances, capacity=10, occupancy=0)
        assert (misses, occupancy) == (2, 2)

    def test_validation(self):
        distances = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            partitioned_lru_segment(distances, capacity=-1)
        with pytest.raises(ValueError):
            partitioned_lru_segment(distances, capacity=2, occupancy=3)
        with pytest.raises(ValueError):
            partitioned_lru_segment(distances, capacity=2, occupancy=-1)


class TestBatchPartitionedLRU:
    def test_matches_reference_on_fixed_split(self):
        rng = np.random.default_rng(0)
        items = rng.integers(0, 20, size=400)
        ids = rng.integers(0, 2, size=400)
        reference = PartitionedLRU([5, 3])
        for tenant, item in zip(ids.tolist(), items.tolist()):
            reference.access(tenant, item)
        batch = BatchPartitionedLRU([5, 3])
        batch.run_segment(TenantDistanceStreams(2).feed(items, ids))
        assert (batch.hits, batch.misses) == (reference.hits, reference.misses)
        assert batch.occupancies == reference.occupancies
        assert batch.miss_ratio == reference.miss_ratio

    def test_shrink_resize_clamps_occupancy_like_reference_evictions(self):
        reference = PartitionedLRU([4])
        batch = BatchPartitionedLRU([4])
        streams = TenantDistanceStreams(1)
        items = np.asarray([1, 2, 3, 4], dtype=np.int64)
        ids = np.zeros(4, dtype=np.int64)
        for item in items.tolist():
            reference.access(0, item)
        batch.run_segment(streams.feed(items, ids))
        reference.resize([2])
        batch.resize([2])
        assert batch.occupancies == reference.occupancies == (2,)
        # the survivors are the most-recent blocks: 4 hits, 3 misses again
        tail = np.asarray([4, 3, 2, 1], dtype=np.int64)
        for item in tail.tolist():
            reference.access(0, item)
        batch.run_segment(streams.feed(tail, np.zeros(4, dtype=np.int64)))
        assert (batch.hits, batch.misses) == (reference.hits, reference.misses)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPartitionedLRU([-1])
        batch = BatchPartitionedLRU([2, 2])
        with pytest.raises(ValueError):
            batch.resize([2])
        with pytest.raises(ValueError):
            batch.resize([2, -1])
        with pytest.raises(ValueError):
            batch.run_segment([np.zeros(0, dtype=np.int64)])


def _precomputed(items, tenant_ids, num_tenants):
    """Wrap one whole-stream distance pass per tenant (what the replay does)."""
    streams = split_by_tenant(items, tenant_ids, num_tenants)
    return PrecomputedTenantDistances([stack_distances_vectorized(stream) for stream in streams])


class TestDistanceProviders:
    def test_streams_and_precomputed_agree(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 30, size=500)
        ids = rng.integers(0, 3, size=500)
        streams = TenantDistanceStreams(3)
        precomputed = _precomputed(items, ids, 3)
        for start in range(0, 500, 120):
            chunk_items = items[start : start + 120]
            chunk_ids = ids[start : start + 120]
            streamed = streams.feed(chunk_items, chunk_ids)
            sliced = precomputed.feed(chunk_items, chunk_ids)
            for a, b in zip(streamed, sliced):
                assert np.array_equal(a, b)

    def test_precomputed_rejects_overrun(self):
        items = np.asarray([1, 2, 3], dtype=np.int64)
        ids = np.zeros(3, dtype=np.int64)
        provider = _precomputed(items, ids, 1)
        provider.feed(items, ids)
        with pytest.raises(ValueError):
            provider.feed(items, ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantDistanceStreams(0)
        with pytest.raises(ValueError):
            PrecomputedTenantDistances([])
        provider = PrecomputedTenantDistances([np.zeros(3, dtype=np.int64)])
        with pytest.raises(ValueError):
            provider.load_state_dict({"cursors": [4]})  # past the stream
        with pytest.raises(ValueError):
            provider.load_state_dict({"cursors": [0, 0]})  # one cursor per tenant
        with pytest.raises(ValueError):
            TenantDistanceStreams(1).feed(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))

    def test_out_of_range_tenant_ids_raise_instead_of_dropping_events(self):
        """A tenant id beyond the configured count must fail loudly — a
        boolean-mask split would silently drop those events and report wrong
        totals where the per-event reference raises."""
        items = np.arange(6, dtype=np.int64)
        bad_ids = np.asarray([0, 1, 2, 0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            TenantDistanceStreams(2).feed(items, bad_ids)
        with pytest.raises(ValueError):
            _precomputed(items, bad_ids, 2)
        provider = _precomputed(items, np.zeros(6, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            provider.feed(items, np.asarray([0, 0, 0, 0, 0, -1], dtype=np.int64))


class TestReplayPartitioned:
    def test_streaming_replay_matches_reference(self):
        rng = np.random.default_rng(2)
        items = rng.integers(0, 40, size=1000)
        ids = rng.integers(0, 2, size=1000)
        reference = PartitionedLRU([8, 6])
        for tenant, item in zip(ids.tolist(), items.tolist()):
            reference.access(tenant, item)
        streamed = replay_partitioned(as_streaming(items, tenant_ids=ids, segment=77).segments(), [8, 6])
        assert (streamed.hits, streamed.misses) == (reference.hits, reference.misses)
        assert streamed.occupancies == reference.occupancies

    def test_single_tenant_wrap(self):
        trace = np.asarray([1, 2, 1, 3, 1], dtype=np.int64)
        result = replay_partitioned(as_streaming(trace, segment=2).segments(), [2])
        reference = PartitionedLRU([2])
        for item in trace.tolist():
            reference.access(0, item)
        assert (result.hits, result.misses) == (reference.hits, reference.misses)


class TestStackDistanceStreamProvider:
    def test_chunked_equals_whole_array(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 25, size=600)
        stream = StackDistanceStream()
        parts = [stream.feed(trace[s : s + 97]) for s in range(0, 600, 97)]
        assert np.array_equal(np.concatenate(parts), stack_distances_vectorized(trace))
        assert stream.clock == 600
        assert stream.footprint == np.unique(trace).size
