"""Chaos tests for the resilient worker pool.

Every failure mode a forked pool can hit — a task raising, a worker killed
mid-task, a stalled task, retries exhausting into the inline rung — must end
in either a result **bit-identical to the ``workers=1`` reference** or a
structured :class:`~repro.resilience.PoolFailureError`; never a hang and
never a bare pickling traceback.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.engine.runner import pool_map, published_arrays, resolve_array
from repro.obs import MetricsRegistry, recording
from repro.resilience import PoolFailureError, RetryPolicy
from repro.resilience.faults import FaultPlan, install_faults, kill, stall, transient

#: Retry policy for tests: generous timeout (slow CI), the fixed backoff schedule.
FAST = RetryPolicy(retries=2, timeout=60.0)


def _square(x: int) -> int:
    return x * x


def _sum_published(index: int) -> int:
    return int(resolve_array("data")[index::7].sum())


class TestResilientPoolHealthy:
    def test_matches_workers_1_reference(self):
        tasks = list(range(16))
        reference = pool_map(_square, tasks, workers=1)
        assert pool_map(_square, tasks, workers=3, policy=FAST) == reference

    def test_single_worker_with_policy(self):
        assert pool_map(_square, [2, 3], workers=1, policy=FAST) == [4, 9]

    def test_empty_tasks(self):
        assert pool_map(_square, [], workers=3, policy=FAST) == []

    def test_published_arrays_survive_the_resilient_path(self):
        data = np.arange(1000, dtype=np.int64)
        with published_arrays({"data": data}):
            got = pool_map(_sum_published, [0, 1, 2], workers=3, policy=FAST)
        assert got == [int(data[i::7].sum()) for i in range(3)]


class TestResilientPoolRecovery:
    """Each injected fault hits attempt 1 only; the retry must recover and
    the merged result must equal the fault-free ``workers=1`` reference."""

    def _recovers(self, plan: FaultPlan, policy: RetryPolicy = FAST):
        tasks = list(range(10))
        reference = pool_map(_square, tasks, workers=1)
        with install_faults(plan):
            got = pool_map(_square, tasks, workers=3, policy=policy)
        assert got == reference

    def test_transient_error_is_retried(self):
        self._recovers(FaultPlan((transient("pool.task", 4),)))

    def test_killed_worker_is_detected_and_retried(self):
        # SIGKILL mid-task: the in-flight result never arrives; the per-task
        # timeout declares the worker lost instead of hanging forever.
        self._recovers(
            FaultPlan((kill("pool.task", 2),)),
            RetryPolicy(retries=2, timeout=15.0),
        )

    def test_stalled_task_times_out_and_retries(self):
        self._recovers(
            FaultPlan((stall("pool.task", 5, seconds=2.0),)),
            RetryPolicy(retries=2, timeout=0.3),
        )

    def test_seeded_chaos_round_trip_is_deterministic(self):
        tasks = list(range(12))
        reference = pool_map(_square, tasks, workers=1)
        plan = FaultPlan.seeded(5, "pool.task", population=len(tasks), count=3)
        for _ in range(2):  # same plan, same outcome, twice
            with install_faults(plan):
                assert pool_map(_square, tasks, workers=3, policy=FAST) == reference

    def test_retries_exhausted_then_inline_rung_succeeds(self):
        # Faults on every pooled attempt (1..3 with retries=2); the inline
        # rung runs attempt 4 in the parent, which the plan leaves alone.
        tasks = list(range(6))
        reference = pool_map(_square, tasks, workers=1)
        plan = FaultPlan((transient("pool.task", 1, attempts=(1, 2, 3)),))
        registry = MetricsRegistry()
        with recording(registry), install_faults(plan):
            got = pool_map(_square, tasks, workers=3, policy=FAST)
        assert got == reference
        snapshot = {key[1]: value for key, value in registry.snapshot().items() if key[0] == "counter"}
        assert snapshot["pool.degraded_inline"] == 1
        assert snapshot["pool.retries"] >= 2

    def test_workers_1_retries_inline(self):
        plan = FaultPlan((transient("pool.task", 0, attempts=(1, 2)),))
        with install_faults(plan):
            assert pool_map(_square, [7, 8], workers=1, policy=FAST) == [49, 64]


class TestPoolFailure:
    def test_permanent_failure_raises_structured_error(self):
        plan = FaultPlan((transient("pool.task", 3, attempts=(1, 2, 3, 4)),))
        with install_faults(plan), pytest.raises(PoolFailureError) as excinfo:
            pool_map(_square, list(range(6)), workers=3, policy=FAST)
        error = excinfo.value
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert failure.index == 3
        assert failure.kind == "error"
        assert failure.attempts == 4  # 3 pooled + 1 inline
        assert "FaultInjected" in failure.cause
        message = str(error)
        assert "1 task(s) failed permanently" in message
        assert "task 3 failed after 4 attempt(s)" in message

    def test_inline_fallback_disabled_fails_after_pool_retries(self):
        policy = RetryPolicy(retries=1, timeout=60.0, inline_fallback=False)
        plan = FaultPlan((transient("pool.task", 0, attempts=(1, 2)),))
        with install_faults(plan), pytest.raises(PoolFailureError) as excinfo:
            pool_map(_square, list(range(4)), workers=2, policy=policy)
        assert excinfo.value.failures[0].attempts == 2  # no inline rung

    def test_failure_metrics_recorded_before_raising(self):
        plan = FaultPlan((transient("pool.task", 1, attempts=(1, 2, 3, 4)),))
        registry = MetricsRegistry()
        with recording(registry), install_faults(plan), pytest.raises(PoolFailureError):
            pool_map(_square, list(range(5)), workers=2, policy=FAST)
        counters = {key[1]: value for key, value in registry.snapshot().items() if key[0] == "counter"}
        assert counters["pool.task_failures"] == 1
        assert counters["pool.tasks"] == 5


class TestPolicyValidation:
    def test_attempts_counts_first_try(self):
        assert RetryPolicy(retries=2).attempts == 3

    def test_delay_is_the_fixed_seeded_schedule(self):
        policy = RetryPolicy()
        assert policy.delay(0, 1) == 0.06532865279427695
        assert policy.delay(5, 4) == 0.47692359547114516
        assert policy.delay(3, 1) == RetryPolicy(retries=0, timeout=None).delay(3, 1)
        for attempt in range(1, 12):
            base = min(0.05 * 2.0 ** (attempt - 1), 2.0)  # capped then jittered
            assert base <= policy.delay(3, attempt) <= base * 1.5
        with pytest.raises(ValueError):
            policy.delay(0, 0)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
