"""The engine's worker-pool runner: one fan-out idiom for every experiment.

Every experiment path — profiling batches, sweep kernel tasks, per-tenant
partition profiling, online replay's up-front profile extraction — fans
independent tasks across a process pool through :func:`pool_map`.  The
conventions are fixed here once:

* **fork first** — the ``fork`` start method lets workers inherit large trace
  arrays copy-on-write instead of pickling them; platforms without ``fork``
  fall back to the default start method.
* **inline when trivial** — ``pool_map`` runs the tasks in the current process
  when a pool would not help (one worker or at most one task), which keeps
  single-process runs deterministic, debuggable and free of pool overhead.
  ``workers=1`` is therefore the *bit-identical single-process reference
  mode* of the engine: every pooled run must produce exactly the same result
  (asserted by the golden cross-engine suite in ``tests/engine/``).
* **publish, don't pickle** — :func:`published_arrays` exposes large arrays
  to forked workers through module globals (inherited copy-on-write), so
  task tuples stay a few bytes instead of shipping the trace once per task.

``workers`` is always validated the same way: any integer below 1 is an error
rather than a silent serial fallback.

:func:`pool_map` is one attempt loop driven by a
:class:`repro.resilience.RetryPolicy`.  With a policy it is the *resilient*
pool: per-task timeouts (a worker killed mid-task — e.g. by the OOM killer —
previously hung the run or surfaced as a bare ``MaybeEncodingError``),
bounded retries with exponential backoff and *seeded* jitter, and a graceful
degradation ladder — retry in the pool, re-run still-failing tasks inline in
the parent, and only then fail with a structured
:class:`repro.resilience.PoolFailureError` naming every task, its attempt
count and its cause.  Without one, every task gets a single attempt and a
failing task raises its own exception.  Results are always assembled in task
order, so the bit-identical merge contract of the golden suite holds no
matter which attempt finally succeeded.

Every attempt returns its wall-clock seconds alongside its result, because
workers cannot record into the parent's registry (they are separate
processes).  When a metrics registry is recording
(:func:`repro.obs.get_registry`), the parent folds the durations into the
``pool.task`` span aggregate in task order, making the recorded aggregate
deterministic regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from typing import Any

import numpy as np

from ..obs import get_registry
from ..resilience.errors import PoolFailureError, TaskFailure
from ..resilience.faults import fire as _fire_fault
from ..resilience.policy import RetryPolicy

__all__ = [
    "check_workers",
    "fork_available",
    "fork_pool",
    "pool_map",
    "published_arrays",
    "resolve_array",
]


def fork_available() -> bool:
    """Whether the ``fork`` start method (copy-on-write globals) exists here."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return False
    return True


def check_workers(workers: int) -> int:
    """Validate a worker count (must be a positive integer)."""
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def fork_pool(workers: int):
    """A ``multiprocessing`` pool using the ``fork`` start method when available."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    return context.Pool(processes=check_workers(workers))


#: The schedule of ``pool_map(..., policy=None)``: one attempt, no timeout
#: and no inline rung.
_SINGLE_ATTEMPT = RetryPolicy(retries=0, timeout=None, inline_fallback=False)


def _guarded_call(function: Callable[[Any], Any], index: int, attempt: int, task: Any) -> tuple[Any, float]:
    """One attempt at one task: fire the chaos hook, run the task, time it.

    Runs inside the worker, or inline in the parent.  Returning the seconds
    alongside the result lets task timings survive the pool.  The
    ``pool.task`` fault site lets the chaos suite raise, stall or
    ``SIGKILL`` exactly this task on exactly this attempt.
    """
    _fire_fault("pool.task", index, attempt)
    start = time.perf_counter()
    result = function(task)
    return result, time.perf_counter() - start


def _abbreviate(task: Any, limit: int = 80) -> str:
    text = repr(task)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def pool_map(
    function: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
) -> list[Any]:
    """Map ``function`` over ``tasks``, preserving task order.

    Runs inline (no pool) when ``workers == 1`` or there is at most one task;
    otherwise fans out over ``min(workers, len(tasks))`` forked processes.
    ``function`` and every task must be picklable in the pooled case.

    ``policy`` (a :class:`~repro.resilience.policy.RetryPolicy`) drives the
    one attempt loop.  Pooled rounds give every still-pending task one
    attempt each (seeded backoff between rounds); a task whose result does
    not arrive within ``policy.timeout`` is declared lost — the one
    observable signature of a worker killed mid-task.  The pool is
    ``terminate``\\ d after every round so a stalled or dead worker cannot
    hold a slot (or the shutdown) hostage.  Tasks that exhaust their pooled
    attempts are re-run inline in the parent when ``policy.inline_fallback``
    allows (an inline run retries up to ``policy.attempts`` times); anything
    still failing raises a :class:`~repro.resilience.errors.PoolFailureError`
    naming every task, its attempt count and its cause.  Without a policy
    each task gets one attempt, no timeout and no inline rung, and a failing
    task raises its own exception unchanged.  Results merge in task order,
    whatever attempt produced them, so a pooled run with retries stays
    bit-identical to the ``workers=1`` reference.
    """
    workers = check_workers(workers)
    tasks = list(tasks)
    bare = policy is None
    policy = policy or _SINGLE_ATTEMPT
    name = getattr(function, "__name__", repr(function))
    n = len(tasks)
    pooled = workers > 1 and n > 1
    results: list[Any] = [None] * n
    done = [False] * n
    attempts = [0] * n
    causes: list[tuple[str, str]] = [("error", "never attempted")] * n
    degraded: list[int] = []
    pending = list(range(n))

    while pending and pooled:
        runnable = [i for i in pending if attempts[i] < policy.attempts]
        if not runnable:
            break
        delay = max((policy.delay(i, attempts[i]) for i in runnable if attempts[i] > 0), default=0.0)
        if delay > 0.0:
            time.sleep(delay)
        pool = fork_pool(min(workers, len(runnable)))
        try:
            handles = [
                (i, pool.apply_async(_guarded_call, (function, i, attempts[i] + 1, tasks[i]))) for i in runnable
            ]
            for i, handle in handles:
                attempts[i] += 1
                try:
                    results[i] = handle.get(policy.timeout)
                except multiprocessing.TimeoutError:
                    causes[i] = (
                        "timeout",
                        f"no result within {policy.timeout}s (stalled task or dead/lost worker)",
                    )
                except Exception as error:  # the task raised (or its result failed to pickle)
                    if bare:
                        raise
                    causes[i] = ("error", repr(error))
                else:
                    done[i] = True
        finally:
            # terminate, not close: close/join would block on stalled or dead workers
            pool.terminate()
            pool.join()
        pending = [i for i in pending if not done[i]]

    for i in pending:
        if pooled:
            if not policy.inline_fallback:
                continue
            degraded.append(i)
            inline_attempts = 1
        else:
            inline_attempts = policy.attempts
        for _ in range(inline_attempts):
            if attempts[i] > 0:
                time.sleep(policy.delay(i, attempts[i]))
            attempts[i] += 1
            try:
                results[i] = _guarded_call(function, i, attempts[i], tasks[i])
            except Exception as error:
                if bare:
                    raise
                causes[i] = ("error", repr(error))
            else:
                done[i] = True
                break
    pending = [i for i in pending if not done[i]]

    failures = tuple(
        TaskFailure(index=i, kind=causes[i][0], attempts=attempts[i], cause=causes[i][1], task=_abbreviate(tasks[i]))
        for i in pending
    )
    registry = get_registry()
    if registry.enabled:
        registry.counter("pool.tasks", function=name).add(n)
        registry.gauge("pool.workers", function=name).set(min(workers, max(n, 1)))
        retries = sum(max(count - 1, 0) for count in attempts)
        if retries:
            registry.counter("pool.retries", function=name).add(retries)
        if degraded:
            registry.counter("pool.degraded_inline", function=name).add(len(degraded))
        if failures:
            registry.counter("pool.task_failures", function=name).add(len(failures))
        for index in range(n):  # task order, not completion order: deterministic
            if done[index]:
                registry.record_span("pool.task", results[index][1], function=name)
    if failures:
        raise PoolFailureError(failures)
    return [result for result, _ in results]


#: Arrays published for forked pool workers.  :func:`published_arrays` fills
#: this immediately before a pool is created (children inherit it
#: copy-on-write) and clears it afterwards, so task tuples can carry a small
#: string key instead of pickling a whole trace through the task queue once
#: per task.
_PUBLISHED: dict[str, np.ndarray] = {}


@contextmanager
def published_arrays(arrays: Mapping[str, np.ndarray]):
    """Publish ``arrays`` to forked workers for the duration of the block.

    Inside the ``with`` block, a task may reference any published array by
    its key; :func:`resolve_array` looks the key up in the worker (or in the
    current process for inline runs).  Publication is only a win when the
    pool *forks* — spawn-based pools re-import the module and see an empty
    table — so callers gate on :func:`fork_available` and fall back to
    embedding the array in the task tuple otherwise.
    """
    _PUBLISHED.update(arrays)
    try:
        yield
    finally:
        for key in arrays:
            _PUBLISHED.pop(key, None)


def resolve_array(payload: str | np.ndarray) -> np.ndarray:
    """Resolve one task payload: a published-array key, or the array itself."""
    if isinstance(payload, str):
        try:
            return _PUBLISHED[payload]
        except KeyError:
            raise KeyError(
                f"no published array named {payload!r} (published: {sorted(_PUBLISHED) or 'none'}); "
                "wrap the pool in published_arrays({...}) and keep it open while tasks run — "
                "only fork-started workers inherit the table copy-on-write, and it is cleared "
                "when the context exits"
            ) from None
    return payload
