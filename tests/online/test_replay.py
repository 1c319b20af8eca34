"""End-to-end tests of the streaming re-partitioning replay."""

from __future__ import annotations

import pytest
from oracles import PartitionedLRU, replay_lanes

from repro.online import OnlineJob, run_replay
from repro.trace.drift import tenant_churn, three_phase_pair

# One moderate workload shared by the expensive end-to-end assertions.  The
# phases span only ~6 epochs here, so the detector runs with hysteresis 1
# (a flag one epoch earlier matters when the regime is short); the benchmark
# exercises the default knobs on the full-length workload.
LENGTH_PER_PHASE = 6000
JOB = OnlineJob(budget=1150, window=6000, epoch=2000, method="hull", rate=0.5, move_cost=1.0, hysteresis=1)


@pytest.fixture(scope="module")
def workload():
    return three_phase_pair(LENGTH_PER_PHASE, seed=7)


@pytest.fixture(scope="module")
def result(workload):
    return run_replay(workload, JOB)


class TestPartitionedLRU:
    def test_basic_hit_miss_accounting(self):
        sim = PartitionedLRU([2, 1])
        assert not sim.access(0, 10)
        assert not sim.access(0, 11)
        assert sim.access(0, 10)
        assert not sim.access(1, 10)  # namespaces are per-tenant partitions
        assert sim.hits == 1 and sim.misses == 3

    def test_zero_capacity_partition_always_misses(self):
        sim = PartitionedLRU([0])
        assert not sim.access(0, 1)
        assert not sim.access(0, 1)
        assert sim.miss_ratio == 1.0

    def test_shrink_evicts_lru_blocks_grow_adds_headroom(self):
        sim = PartitionedLRU([3])
        for item in (1, 2, 3):
            sim.access(0, item)
        sim.resize([1])
        assert sim.access(0, 3)  # most recent survived
        assert not sim.access(0, 1)  # LRU end was evicted; 1 displaces 3
        sim.resize([3])
        assert not sim.access(0, 2)  # grown partition warms up through misses
        assert sim.access(0, 1)  # resident block survived the growth

    def test_resize_validation(self):
        sim = PartitionedLRU([2, 2])
        with pytest.raises(ValueError):
            sim.resize([2])
        with pytest.raises(ValueError):
            sim.resize([2, -1])
        with pytest.raises(ValueError):
            PartitionedLRU([-1])


class TestReplayEndToEnd:
    def test_adaptive_strictly_beats_static_on_drifting_trace(self, result):
        assert result.adaptive_miss_ratio < result.static_miss_ratio
        assert result.win_vs_static > 0.0

    def test_oracle_bounds_both_systems(self, result):
        assert result.oracle_miss_ratio <= result.adaptive_miss_ratio
        assert result.oracle_miss_ratio <= result.static_miss_ratio

    def test_engine_actually_adapted(self, result):
        assert result.reallocations >= 1
        assert result.phase_changes >= 1
        assert result.final_allocation != result.epochs[0].adaptive_allocation or result.reallocations == 0

    def test_profiling_work_bounded_by_twice_the_trace(self, result):
        assert result.profiled_references <= 2 * result.accesses

    def test_epoch_series_is_consistent(self, result):
        assert result.epochs[0].start == 0
        assert result.epochs[-1].end == result.accesses
        for earlier, later in zip(result.epochs, result.epochs[1:]):
            assert earlier.end == later.start
        for epoch in result.epochs:
            assert sum(epoch.adaptive_allocation) <= JOB.budget
            assert 0.0 <= epoch.adaptive_miss_ratio <= 1.0

    def test_rows_and_summary_are_export_ready(self, result):
        rows = result.rows()
        assert len(rows) == len(result.epochs)
        assert {"epoch", "static", "adaptive", "oracle", "allocation"} <= set(rows[0])
        summary = result.summary()
        assert summary["win_vs_static"] == pytest.approx(result.static_miss_ratio - result.adaptive_miss_ratio)

    def test_reference_engine_is_bit_identical(self, workload, result):
        """The per-event OrderedDict oracle, re-driving the recorded lane
        schedules from from-scratch profiles, agrees with the batch kernels on
        every epoch of every lane."""
        replay_lanes(workload, result, JOB)

    def test_oracle_allocations_are_per_phase_and_respect_budget(self, workload, result):
        assert len(result.oracle_allocations) == workload.num_phases
        for allocation in result.oracle_allocations:
            assert sum(allocation) <= JOB.budget

    def test_unknown_engine_rejected_before_any_work(self, workload):
        """There is one data plane: no engine= keyword is accepted."""
        with pytest.raises(TypeError):
            run_replay(workload, JOB, engine="turbo")


class TestTenantChurn:
    def test_visitor_gets_capacity_only_while_present(self):
        workload = tenant_churn(6000, seed=11)
        job = OnlineJob(budget=700, window=4000, epoch=1500, rate=0.5)
        result = run_replay(workload, job)
        boundaries = workload.boundaries
        before = [e for e in result.epochs if e.end <= boundaries[1]]
        during = [e for e in result.epochs if boundaries[1] < e.end <= boundaries[2]]
        # while the visitor is absent at the start it owns nothing
        assert all(e.adaptive_allocation[1] == 0 for e in before)
        # once present (and detected) it is granted real capacity
        assert max(e.adaptive_allocation[1] for e in during) > 0
        # after departure the engine hands capacity back to the resident
        assert result.final_allocation[0] > result.final_allocation[1]


class TestDetectorGatesReallocation:
    def test_deaf_detector_and_sparse_cadence_suppress_churn(self, workload):
        """With an unreachable threshold and a cadence longer than the run,
        the controller is only ever consulted at epoch 0 — the detector knobs
        must actually gate re-allocation, not just annotate the rows."""
        deaf = OnlineJob(
            budget=JOB.budget, window=JOB.window, epoch=JOB.epoch, rate=JOB.rate,
            threshold=10.0, realloc_epochs=10_000,
        )
        result = run_replay(workload, deaf)
        assert result.phase_changes == 0
        assert result.reallocations <= 1  # at most the epoch-0 cadence point
        assert all(not e.reallocated for e in result.epochs[1:])

    def test_sensitive_detector_reallocates_more_than_deaf_one(self, workload):
        deaf = OnlineJob(
            budget=JOB.budget, window=JOB.window, epoch=JOB.epoch, rate=JOB.rate,
            threshold=10.0, realloc_epochs=10_000,
        )
        sensitive = OnlineJob(
            budget=JOB.budget, window=JOB.window, epoch=JOB.epoch, rate=JOB.rate,
            threshold=0.03, hysteresis=1, realloc_epochs=10_000,
        )
        assert run_replay(workload, sensitive).reallocations > run_replay(workload, deaf).reallocations


class TestJobValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            OnlineJob(budget=0, window=10, epoch=10)
        with pytest.raises(ValueError):
            OnlineJob(budget=10, window=0, epoch=10)
        with pytest.raises(ValueError):
            OnlineJob(budget=10, window=10, epoch=0)
        with pytest.raises(ValueError):
            OnlineJob(budget=10, window=10, epoch=10, unit=20)

    def test_rejects_bad_knobs_before_any_work_happens(self):
        """The config object fails fast — not deep inside run_replay after the
        expensive whole-trace profiling already ran."""
        good = dict(budget=10, window=10, epoch=10)
        with pytest.raises(ValueError):
            OnlineJob(**good, method="nope")
        with pytest.raises(ValueError):
            OnlineJob(**good, rate=0.0)
        with pytest.raises(ValueError):
            OnlineJob(**good, rate=2.0)
        with pytest.raises(ValueError):
            OnlineJob(**good, decay=-0.1)
        with pytest.raises(ValueError):
            OnlineJob(**good, move_cost=-1.0)
        with pytest.raises(ValueError):
            OnlineJob(**good, threshold=0.0)
        with pytest.raises(ValueError):
            OnlineJob(**good, hysteresis=0)
        with pytest.raises(ValueError):
            OnlineJob(**good, realloc_epochs=0)
