"""Unit tests for the batch partitioned-LRU replay data plane: the segment kernel, lanes and streamed replay."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import PartitionedLRU

from repro.cache.stack_distance import COLD, StackDistanceStream, stack_distances_vectorized
from repro.engine import LaneSet, split_by_tenant
from repro.sim.partitioned import partitioned_lru_segment, replay_partitioned
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


def _lane_set(items, tenant_ids, num_tenants, *splits):
    """Lanes ``"a"``, ``"b"``, ... over one whole-stream distance pass per tenant (what the replay does)."""
    streams = split_by_tenant(items, tenant_ids, num_tenants)
    distances = [stack_distances_vectorized(stream) for stream in streams]
    return LaneSet(distances, {chr(ord("a") + lane): split for lane, split in enumerate(splits)})


def _reference(items, tenant_ids, capacities):
    reference = PartitionedLRU(capacities)
    for tenant, item in zip(np.asarray(tenant_ids).tolist(), np.asarray(items).tolist()):
        reference.access(tenant, item)
    return reference


class TestLaneSet:
    def test_matches_reference_on_fixed_split(self):
        rng = np.random.default_rng(0)
        items = rng.integers(0, 20, size=400)
        ids = rng.integers(0, 2, size=400)
        reference = _reference(items, ids, [5, 3])
        lanes = _lane_set(items, ids, 2, [5, 3])
        counters = {"a": [0, 0]}
        lanes.advance(items, ids, counters)
        assert tuple(counters["a"]) == lanes.totals("a") == (reference.hits, reference.misses)
        assert lanes.occupancies("a") == reference.occupancies
        assert lanes.miss_ratio("a") == reference.miss_ratio
        assert lanes.capacities("a") == (5, 3)

    def test_shrink_resize_clamps_occupancy_like_reference_evictions(self):
        head = np.asarray([1, 2, 3, 4], dtype=np.int64)
        tail = np.asarray([4, 3, 2, 1], dtype=np.int64)  # the survivors are the most-recent blocks
        ids = np.zeros(4, dtype=np.int64)
        reference = _reference(head, ids, [4])
        lanes = _lane_set(np.concatenate([head, tail]), np.zeros(8, dtype=np.int64), 1, [4])
        counters = {"a": [0, 0]}
        lanes.advance(head, ids, counters)
        reference.resize([2])
        lanes.resize("a", [2])
        assert lanes.occupancies("a") == reference.occupancies == (2,)
        for item in tail.tolist():
            reference.access(0, item)
        lanes.advance(tail, ids, counters)
        assert lanes.totals("a") == (reference.hits, reference.misses) == (2, 6)

    def test_lanes_share_the_distances_and_keep_their_own_state(self):
        rng = np.random.default_rng(4)
        items = rng.integers(0, 30, size=300)
        ids = rng.integers(0, 2, size=300)
        lanes = _lane_set(items, ids, 2, [2, 9], [9, 2])
        counters = {"a": [0, 0], "b": [0, 0]}
        for start in range(0, 300, 70):
            lanes.advance(items[start : start + 70], ids[start : start + 70], counters)
        for lane, split in (("a", [2, 9]), ("b", [9, 2])):
            reference = _reference(items, ids, split)
            assert lanes.totals(lane) == tuple(counters[lane]) == (reference.hits, reference.misses)
            assert lanes.occupancies(lane) == reference.occupancies

    def test_rejects_overrun(self):
        items = np.asarray([1, 2, 3], dtype=np.int64)
        ids = np.zeros(3, dtype=np.int64)
        lanes = _lane_set(items, ids, 1, [2])
        lanes.advance(items, ids, {"a": [0, 0]})
        with pytest.raises(ValueError, match="fed past"):
            lanes.advance(items, ids, {"a": [0, 0]})

    def test_validation(self):
        distances = [np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)]
        with pytest.raises(ValueError):
            LaneSet([], {"a": []})
        with pytest.raises(ValueError):
            LaneSet(distances, {"a": [2, -1]})
        with pytest.raises(ValueError):
            LaneSet(distances, {"a": [2]})  # one capacity per tenant
        lanes = LaneSet(distances, {"a": [2, 2]})
        with pytest.raises(ValueError):
            lanes.resize("a", [2])
        with pytest.raises(ValueError):
            lanes.resize("a", [2, -1])
        with pytest.raises(ValueError):
            lanes.fold([np.zeros(0, dtype=np.int64)], {"a": [0, 0]})  # one run per tenant
        with pytest.raises(KeyError):
            lanes.resize("b", [2, 2])

    def test_state_round_trip_and_validation(self):
        rng = np.random.default_rng(5)
        items = rng.integers(0, 12, size=60)
        ids = rng.integers(0, 2, size=60)
        lanes = _lane_set(items, ids, 2, [3, 1])
        lanes.advance(items[:25], ids[:25], {"a": [0, 0]})
        lanes.resize("a", [1, 3])
        state = lanes.state_dict()
        assert set(state) == {"lanes", "distances"}
        assert set(state["lanes"]["a"]) == {"capacities", "occupancies", "hits", "misses"}
        resumed = _lane_set(items, ids, 2, [3, 1])
        resumed.load_state_dict(state)
        assert resumed.state_dict() == state
        ahead, behind = {"a": [0, 0]}, {"a": [0, 0]}
        lanes.advance(items[25:], ids[25:], ahead)
        resumed.advance(items[25:], ids[25:], behind)
        assert ahead == behind
        assert lanes.state_dict() == resumed.state_dict()

        def broken(**changes):
            lane = {**state["lanes"]["a"], **changes.pop("lane", {})}
            return {"lanes": {"a": lane}, "distances": {"cursors": changes.get("cursors", [0, 0])}}

        for bad in (
            broken(cursors=[61, 0]),  # past the stream
            broken(cursors=[0]),  # one cursor per tenant
            broken(lane={"occupancies": [2, 0]}),  # above its capacity
            broken(lane={"occupancies": [0]}),  # one occupancy per tenant
            broken(lane={"capacities": [-1, 3]}),
            {"lanes": {"b": state["lanes"]["a"]}, "distances": state["distances"]},  # unknown lane
        ):
            with pytest.raises(ValueError):
                resumed.load_state_dict(bad)

    def test_out_of_range_tenant_ids_raise_instead_of_dropping_events(self):
        """A tenant id beyond the configured count must fail loudly — a
        boolean-mask split would silently drop those events and report wrong
        totals where the per-event reference raises."""
        items = np.arange(6, dtype=np.int64)
        bad_ids = np.asarray([0, 1, 2, 0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            replay_partitioned([(items, bad_ids)], [2, 2])
        with pytest.raises(ValueError):
            _lane_set(items, bad_ids, 2, [2, 2])
        lanes = _lane_set(items, np.zeros(6, dtype=np.int64), 1, [2])
        with pytest.raises(ValueError):
            lanes.advance(items, np.asarray([0, 0, 0, 0, 0, -1], dtype=np.int64), {"a": [0, 0]})
        with pytest.raises(ValueError):
            lanes.advance(items, np.asarray([0, 0, 0, 0, 0, 1], dtype=np.int64), {"a": [0, 0]})


class TestReplayPartitioned:
    def test_streaming_replay_matches_reference(self):
        rng = np.random.default_rng(2)
        items = rng.integers(0, 40, size=1000)
        ids = rng.integers(0, 2, size=1000)
        reference = _reference(items, ids, [8, 6])
        streamed = replay_partitioned(as_streaming(items, tenant_ids=ids, segment=77).segments(), [8, 6])
        assert streamed.totals("replay") == (reference.hits, reference.misses)
        assert streamed.occupancies("replay") == reference.occupancies

    def test_streamed_and_precomputed_distances_agree(self):
        rng = np.random.default_rng(1)
        items = rng.integers(0, 30, size=500)
        ids = rng.integers(0, 3, size=500)
        streamed = replay_partitioned(as_streaming(items, tenant_ids=ids, segment=120).segments(), [4, 7, 2])
        lanes = _lane_set(items, ids, 3, [4, 7, 2])
        for start in range(0, 500, 120):
            lanes.advance(items[start : start + 120], ids[start : start + 120], {"a": [0, 0]})
        assert streamed.state_dict()["lanes"]["replay"] == lanes.state_dict()["lanes"]["a"]

    def test_single_tenant_wrap(self):
        trace = np.asarray([1, 2, 1, 3, 1], dtype=np.int64)
        result = replay_partitioned(as_streaming(trace, segment=2).segments(), [2])
        reference = _reference(trace, np.zeros(5, dtype=np.int64), [2])
        assert result.totals("replay") == (reference.hits, reference.misses)
        assert result.miss_ratio("replay") == reference.miss_ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_partitioned([], [])  # no tenant
        with pytest.raises(ValueError):
            replay_partitioned([], [-1])
        with pytest.raises(ValueError):  # items and tenant ids must align
            replay_partitioned([(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))], [1])


class TestStackDistanceStreamProvider:
    def test_chunked_equals_whole_array(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 25, size=600)
        stream = StackDistanceStream()
        parts = [stream.feed(trace[s : s + 97]) for s in range(0, 600, 97)]
        assert np.array_equal(np.concatenate(parts), stack_distances_vectorized(trace))
        assert stream.clock == 600
        assert stream.footprint == np.unique(trace).size
