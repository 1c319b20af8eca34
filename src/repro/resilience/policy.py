"""Retry policies: bounded, deterministic recovery schedules for pooled tasks.

A :class:`RetryPolicy` turns :func:`repro.engine.runner.pool_map` into the
resilient pool: per-task timeouts, bounded retries with exponential backoff,
and a final inline degradation step.  The backoff schedule is fixed by the
module constants below, and its *jitter* is seeded — every delay is a pure
function of ``(task index, attempt)`` — so a retried run sleeps the same
schedule every time instead of sampling wall-clock entropy.  Results are
always merged in task order, so retries never change what a run computes,
only whether it survives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]

#: Seconds before the first retry; retry ``k`` waits
#: ``BACKOFF * MULTIPLIER**(k-1)``, capped at ``MAX_BACKOFF``.
BACKOFF = 0.05
MULTIPLIER = 2.0
MAX_BACKOFF = 2.0
#: Fraction of the backoff added as seeded jitter (up to +50%), drawn from
#: :data:`SEED`, never from wall-clock entropy.
JITTER = 0.5
SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient pool retries, times out and degrades.

    Parameters
    ----------
    retries:
        Extra *pooled* attempts per task beyond the first (``2`` means up to
        three tries in the pool before degrading inline).
    timeout:
        Per-task seconds the parent waits for a pooled result before
        declaring the task lost (a stalled task, or a worker killed
        mid-task — e.g. by the OOM killer — whose result will never
        arrive).  ``None`` waits forever, which re-creates the pre-policy
        hang; the default keeps dead workers detectable.  Inline attempts
        cannot be preempted and therefore ignore the timeout.
    inline_fallback:
        Whether tasks that exhaust their pooled retries are re-run inline in
        the parent (the last rung of the degradation ladder) before the run
        fails with a :class:`~repro.resilience.errors.PoolFailureError`.
    """

    retries: int = 2
    timeout: float | None = 30.0
    inline_fallback: bool = True

    def __post_init__(self):
        if int(self.retries) < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and float(self.timeout) <= 0.0:
            raise ValueError(f"timeout must be positive (or None), got {self.timeout}")

    @property
    def attempts(self) -> int:
        """Total pooled attempts per task (first try plus retries)."""
        return int(self.retries) + 1

    def delay(self, index: int, attempt: int) -> float:
        """Seconds to sleep before retrying task ``index`` for the ``attempt``-th time.

        ``attempt`` counts from 1 (the first *retry*).  Deterministic: the
        jitter comes from a :class:`random.Random` keyed by ``(SEED, index,
        attempt)``, so the whole schedule replays identically.
        """
        attempt = int(attempt)
        if attempt < 1:
            raise ValueError(f"attempt counts retries from 1, got {attempt}")
        base = min(BACKOFF * MULTIPLIER ** (attempt - 1), MAX_BACKOFF)
        jitter = random.Random(f"{SEED}:{int(index)}:{attempt}").random() * JITTER
        return base * (1.0 + jitter)
