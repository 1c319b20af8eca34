"""End-to-end tests of the partitioning pipeline (compose → profile → allocate → validate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alloc import METHODS, PartitionJob, partition_composed, profile_tenants, run_partition, simulate_baselines
from repro.cache.lru import LRUCache
from repro.trace import TenantSpec, compose_tenants, zipfian_trace
from repro.trace.trace import PeriodicTrace
from repro.trace.workloads import stream_copy


@pytest.fixture(scope="module")
def acceptance_tenants():
    """The acceptance workload: Zipf + sawtooth + STREAM co-running tenants."""
    return (
        TenantSpec(zipfian_trace(15000, 2048, exponent=0.9, rng=7), name="zipf"),
        TenantSpec(PeriodicTrace.sawtooth(2000).to_trace(), name="sawtooth"),
        TenantSpec(stream_copy(1000, repetitions=3), name="stream"),
    )


class TestRunPartition:
    @pytest.mark.parametrize("method", METHODS)
    def test_exact_profiles_predict_exactly(self, acceptance_tenants, method):
        result = run_partition(PartitionJob(tenants=acceptance_tenants, budget=1024, method=method))
        assert result.prediction_error <= 1e-12
        assert sum(result.allocation().values()) <= 1024

    def test_hull_and_dp_beat_proportional_and_unpartitioned(self, acceptance_tenants):
        for method in ("hull", "dp"):
            result = run_partition(PartitionJob(tenants=acceptance_tenants, budget=1024, method=method))
            assert result.win_vs_proportional > 0.0
            assert result.win_vs_unpartitioned > 0.0

    def test_dp_never_loses_to_greedy_or_hull(self, acceptance_tenants):
        simulated = {
            method: run_partition(
                PartitionJob(tenants=acceptance_tenants, budget=1024, method=method)
            ).simulated_miss_ratio
            for method in METHODS
        }
        assert simulated["dp"] <= simulated["greedy"] + 1e-12
        assert simulated["dp"] <= simulated["hull"] + 1e-12

    def test_workers_never_change_the_result(self, acceptance_tenants):
        job = PartitionJob(tenants=acceptance_tenants, budget=1024, method="hull")
        serial = run_partition(job, workers=1)
        pooled = run_partition(job, workers=3)
        assert serial.tenants == pooled.tenants  # allocations and both miss ratios
        assert serial.predicted_miss_ratio == pooled.predicted_miss_ratio
        assert serial.simulated_miss_ratio == pooled.simulated_miss_ratio
        assert serial.unpartitioned_miss_ratio == pooled.unpartitioned_miss_ratio
        assert serial.proportional_miss_ratio == pooled.proportional_miss_ratio

    def test_shards_profiles_stay_within_acceptance_error(self, acceptance_tenants):
        result = run_partition(
            PartitionJob(tenants=acceptance_tenants, budget=1024, method="hull", mode="shards", rate=0.1)
        )
        assert result.prediction_error <= 0.02

    def test_unit_granularity_produces_multiples(self, acceptance_tenants):
        result = run_partition(PartitionJob(tenants=acceptance_tenants, budget=1024, method="dp", unit=64))
        assert all(capacity % 64 == 0 for capacity in result.allocation().values())
        assert sum(result.allocation().values()) <= 1024

    def test_single_tenant_gets_the_whole_useful_budget(self):
        tenant = TenantSpec(zipfian_trace(4000, 256, exponent=1.0, rng=1), name="solo")
        result = run_partition(PartitionJob(tenants=(tenant,), budget=512, method="hull"))
        # Alone, partitioning cannot beat the shared cache; it must tie.
        assert result.simulated_miss_ratio == pytest.approx(result.unpartitioned_miss_ratio, abs=1e-12)

    def test_default_tenant_names_stay_distinct_in_allocation(self):
        tenants = (
            TenantSpec(zipfian_trace(2000, 128, rng=1)),
            TenantSpec(zipfian_trace(2000, 128, rng=2)),
        )
        result = run_partition(PartitionJob(tenants=tenants, budget=64, method="dp"))
        assert len(result.allocation()) == 2
        assert sum(result.allocation().values()) == sum(t.capacity for t in result.tenants)

    def test_precomputed_profiles_and_baselines_match_inline(self, acceptance_tenants):
        job = PartitionJob(tenants=acceptance_tenants, budget=1024, method="hull")
        composed = compose_tenants(acceptance_tenants, seed=job.seed, name=job.name)
        inline = partition_composed(job, composed)
        reused = partition_composed(
            job,
            composed,
            profiles=profile_tenants(job, composed),
            baselines=simulate_baselines(composed, job.budget),
        )
        assert inline.tenants == reused.tenants
        assert inline.summary() == reused.summary()
        with pytest.raises(ValueError, match="budget"):
            partition_composed(job, composed, baselines=simulate_baselines(composed, 512))
        # Baselines of another composed trace at the same budget: its tenants' hits would be read as these.
        fewer = compose_tenants(acceptance_tenants[:2], seed=job.seed)
        with pytest.raises(ValueError, match="access counts"):
            partition_composed(job, composed, baselines=simulate_baselines(fewer, job.budget))
        shorter = (*acceptance_tenants[:2], TenantSpec(acceptance_tenants[2].accesses[:-1], name="stream"))
        other = compose_tenants(shorter, seed=job.seed)
        with pytest.raises(ValueError, match="access counts"):
            partition_composed(job, composed, baselines=simulate_baselines(other, job.budget))

    def test_rows_and_summary_schema(self, acceptance_tenants):
        result = run_partition(PartitionJob(tenants=acceptance_tenants, budget=512, method="greedy"))
        rows = result.rows()
        assert len(rows) == 3
        assert {"tenant", "capacity", "predicted_miss_ratio", "simulated_miss_ratio"} <= set(rows[0])
        summary = result.summary()
        assert {"predicted", "simulated", "error", "unpartitioned", "proportional"} <= set(summary)

    def test_job_validation(self, acceptance_tenants):
        with pytest.raises(ValueError):
            PartitionJob(tenants=(), budget=64)
        with pytest.raises(ValueError):
            PartitionJob(tenants=acceptance_tenants, budget=0)
        with pytest.raises(ValueError):
            PartitionJob(tenants=acceptance_tenants, budget=64, method="magic")
        with pytest.raises(ValueError):
            PartitionJob(tenants=acceptance_tenants, budget=64, unit=128)
        with pytest.raises(ValueError):
            run_partition(PartitionJob(tenants=acceptance_tenants, budget=64), workers=0)


def _replay_miss_ratio(stream, capacity):
    """Per-event LRU replay of one stream; a partition of no blocks misses every access."""
    if capacity < 1:
        return 1.0
    return LRUCache(int(capacity)).run(int(x) for x in stream).miss_ratio


def _small_tenants(count, *, length, items, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        TenantSpec(rng.integers(0, items, size=length), name=f"t{t}", rate=1.0 + t % 3) for t in range(count)
    )


_DEGENERATE_JOBS = {
    "budget-below-tenant-count": dict(tenants=_small_tenants(5, length=60, items=12, seed=1), budget=3),
    "unit-above-footprint": dict(tenants=_small_tenants(3, length=40, items=3, seed=2), budget=32, unit=8),
    "length-1-tenants": dict(
        tenants=(
            TenantSpec(np.array([4]), name="a"),
            TenantSpec(np.array([0]), name="b"),
            *_small_tenants(1, length=30, items=5, seed=3),
        ),
        budget=4,
    ),
    "17-tenants": dict(tenants=_small_tenants(17, length=50, items=9, seed=4), budget=40),
    "budget-far-above-footprints": dict(
        tenants=(TenantSpec(np.array([0, 1, 0, 1, 2]), name="a"), TenantSpec(np.array([3, 3, 1]), name="b")),
        budget=2**33,
        unit=2**32,
    ),
}


class TestValidationAgainstReplay:
    """Every simulated ratio of a result equals a per-event ``LRUCache`` replay."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", list(_DEGENERATE_JOBS), ids=list(_DEGENERATE_JOBS))
    def test_ratios_match_per_event_replay(self, case, method):
        job = PartitionJob(**_DEGENERATE_JOBS[case], method=method)
        composed = compose_tenants(job.tenants, seed=job.seed, name=job.name)
        result = partition_composed(job, composed)
        streams = [composed.tenant_trace(t) for t in range(composed.num_tenants)]
        total = len(composed.trace)
        assert sum(result.allocation().values()) <= job.budget
        for tenant, stream in zip(result.tenants, streams):
            assert tenant.accesses == stream.size
            assert tenant.footprint == np.unique(stream).size
            assert tenant.simulated_miss_ratio == pytest.approx(_replay_miss_ratio(stream, tenant.capacity), abs=1e-12)
        assert result.unpartitioned_miss_ratio == pytest.approx(
            _replay_miss_ratio(composed.trace.accesses, job.budget), abs=1e-12
        )
        proportional = simulate_baselines(composed, job.budget).proportional_allocation
        assert sum(proportional) <= job.budget
        want = sum(_replay_miss_ratio(s, c) * s.size for s, c in zip(streams, proportional)) / total
        assert result.proportional_miss_ratio == pytest.approx(want, abs=1e-12)

    def test_budget_far_above_footprints_runs_end_to_end(self):
        job = PartitionJob(**_DEGENERATE_JOBS["budget-far-above-footprints"])
        result = run_partition(job)
        assert result.simulated_miss_ratio == result.unpartitioned_miss_ratio == 5 / 8  # cold misses only
        assert len(profile_tenants(job, compose_tenants(job.tenants, seed=job.seed))[0].curve.ratios) == 5

    def test_baseline_hits_stop_at_the_footprint(self, acceptance_tenants):
        composed = compose_tenants(acceptance_tenants, seed=0)
        baselines = simulate_baselines(composed, 2**40)
        assert all(hits.size - 1 <= footprint for hits, footprint in zip(baselines.hits, baselines.footprints))
        tight = simulate_baselines(composed, 100)
        assert [hits.size - 1 for hits in tight.hits] == [100, 100, 100]
