"""Structured failure types of the fault-tolerant execution layer.

Every recovery path in :mod:`repro.resilience` ends in one of three places:
the work succeeded (possibly after retries), the work was re-run inline, or
the run fails with a *structured* error that names what broke — the task and
its attempt count, the trace file and its expected vs. found shape/checksum,
or the checkpoint and why it cannot be trusted.  Opaque tracebacks
(``MaybeEncodingError``, bare ``KeyError``, downstream numpy shape errors)
are exactly what this module replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CheckpointError",
    "CheckpointIntegrityError",
    "PoolFailureError",
    "TaskFailure",
    "TraceIntegrityError",
]


@dataclass(frozen=True)
class TaskFailure:
    """One task the resilient pool could not complete.

    Attributes
    ----------
    index:
        Position of the task in the submitted sequence (the merge order).
    kind:
        How the final attempt failed: ``"error"`` (the task raised),
        ``"timeout"`` (no result within the per-task timeout — a stalled
        task or a dead/lost worker, e.g. one killed by the OOM killer).
    attempts:
        Total attempts made, pooled and inline together.
    cause:
        ``repr`` of the final exception, or a timeout description.
    task:
        Abbreviated ``repr`` of the task payload itself.
    """

    index: int
    kind: str
    attempts: int
    cause: str
    task: str = ""

    def describe(self) -> str:
        """One human-readable line naming the task, attempts and cause."""
        suffix = f" task={self.task}" if self.task else ""
        return f"task {self.index} failed after {self.attempts} attempt(s) [{self.kind}]: {self.cause}{suffix}"


class PoolFailureError(RuntimeError):
    """Raised when the degradation ladder is exhausted for at least one task.

    The resilient pool retries a failing task in the pool, then re-runs it
    inline in the parent process; only when the inline attempt also fails
    does the run abort — with every unrecovered task's :class:`TaskFailure`
    attached as :attr:`failures` instead of whichever worker traceback
    happened to surface first.
    """

    def __init__(self, failures: list[TaskFailure] | tuple[TaskFailure, ...]):
        self.failures: tuple[TaskFailure, ...] = tuple(failures)
        lines = "; ".join(failure.describe() for failure in self.failures)
        super().__init__(f"{len(self.failures)} task(s) failed permanently: {lines}")


class TraceIntegrityError(RuntimeError):
    """A memmap trace column is missing, truncated, mismatched or corrupt.

    Carries the offending ``file`` plus the ``expected`` and ``found``
    values (shape, dtype or checksum) so the error message is actionable —
    the alternative is an unrelated numpy shape/broadcast error long after
    the corrupt column was opened.
    """

    def __init__(self, file: str, *, reason: str, expected: object = None, found: object = None):
        self.file = str(file)
        self.expected = expected
        self.found = found
        message = f"trace integrity violation in {self.file}: {reason}"
        if expected is not None or found is not None:
            message += f" (expected {expected!r}, found {found!r})"
        super().__init__(message)


class CheckpointError(RuntimeError):
    """A checkpoint directory/manifest cannot be used (missing, wrong run, wrong schema)."""


class CheckpointIntegrityError(CheckpointError):
    """A checkpoint file exists but fails its checksum or schema validation.

    Carries the offending ``path`` plus the ``expected`` and ``found``
    values (byte count or digest), as :class:`TraceIntegrityError` does.
    """

    def __init__(self, path: str, *, reason: str, expected: object = None, found: object = None):
        self.path = str(path)
        self.expected = expected
        self.found = found
        message = f"checkpoint integrity violation in {path}: {reason}"
        if expected is not None or found is not None:
            message += f" (expected {expected!r}, found {found!r})"
        super().__init__(message)
