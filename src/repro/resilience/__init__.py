"""Fault-tolerant execution: resilient pooling, checkpoints, integrity, chaos.

Long multi-process runs fail in predictable ways — a worker raises, a worker
is killed mid-task (OOM), a task stalls, a run is interrupted, a memmap
trace is truncated or corrupted on disk.  This package gives every one of
those failure modes a deterministic recovery path without ever changing
*what* a run computes:

* :class:`RetryPolicy` (``policy``) — bounded retries, per-task timeouts
  and seeded backoff jitter for :func:`repro.engine.runner.pool_map`'s
  degradation ladder (retry in pool → re-run inline →
  :class:`PoolFailureError`).
* ``checkpoint`` — atomic, checksummed, fingerprinted snapshots
  (:func:`write_checkpoint` / :func:`load_checkpoint`) behind the online
  replay's ``--checkpoint``/``--resume`` and the sweep's task memo.
* ``errors`` — the structured failure types (:class:`TaskFailure`,
  :class:`TraceIntegrityError`, :class:`CheckpointIntegrityError`).
* ``faults`` — seeded :class:`FaultPlan` chaos hooks
  (:func:`install_faults`) plus on-disk trace damage helpers, driving the
  ``tests/resilience`` suite that proves each recovery path end-to-end.

Examples
--------
A retry policy's backoff schedule is fixed and seeded, so every delay is a
pure function of the task index and the attempt:

>>> from repro.resilience import RetryPolicy
>>> policy = RetryPolicy(retries=2)
>>> policy.delay(3, 1) == RetryPolicy().delay(3, 1)
True
>>> policy.attempts
3
"""

from .checkpoint import CHECKPOINT_SCHEMA, Checkpoint, latest_step, load_checkpoint, write_checkpoint
from .errors import CheckpointError, CheckpointIntegrityError, PoolFailureError, TaskFailure, TraceIntegrityError
from .faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_plan,
    corrupt_trace_column,
    fire,
    install_faults,
    kill,
    stall,
    transient,
    truncate_trace_column,
)
from .policy import RetryPolicy

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointError",
    "CheckpointIntegrityError",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "PoolFailureError",
    "RetryPolicy",
    "TaskFailure",
    "TraceIntegrityError",
    "active_plan",
    "corrupt_trace_column",
    "fire",
    "install_faults",
    "kill",
    "latest_step",
    "load_checkpoint",
    "stall",
    "transient",
    "truncate_trace_column",
    "write_checkpoint",
]
