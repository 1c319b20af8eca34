"""The public experiment API: one front door for the four experiment types.

Every experiment in this package is the same shape — a frozen *job*
(validated knobs), an engine-backed runner, and a frozen *result* that
renders ``rows()`` and ``summary()`` (the
:class:`repro.engine.ExperimentJob` / :class:`repro.engine.ExperimentResult`
protocols).  This module is the facade over that contract:

* :func:`profile` — exact or approximate miss-ratio curves of one trace or a
  batch (:class:`~repro.profiling.engine.ProfileJob`).
* :func:`sweep` — many policies × capacities over one trace
  (:class:`~repro.sim.sweep.SweepJob`).
* :func:`partition` — divide a shared cache budget among tenants
  (:class:`~repro.alloc.partition.PartitionJob`).
* :func:`online` — adaptive re-partitioning replay on a drifting workload
  (:class:`~repro.online.replay.OnlineJob`).
* :func:`run` — dispatch an already-built job of any of the four types.
* :func:`export_csv` — write any result's rows with the per-type CSV
  convention the CLI has always used (byte-identical files).

Every entry point takes the same cross-cutting keywords ``csv_path``
(export rows after the run) and ``metrics_path`` (record counters/spans/series
into a JSONL file via :mod:`repro.obs`); the profile, sweep and partition
entry points also take ``workers`` (fan independent tasks over the engine's
process pool — never changes a result).  Every other keyword is a field of
the entry point's job dataclass and goes to the job constructor unchanged:
the job declares each knob and its default once, and an unknown keyword
fails with the job's own ``TypeError`` before any work runs.  The CLI
subcommands are thin wrappers over these functions.

Examples
--------
>>> import numpy as np
>>> from repro import api
>>> result = api.sweep(np.array([1, 2, 1, 2, 3, 1]), capacities=(1, 2, 3), name="tiny")
>>> [round(r, 4) for r in result["lru"].miss_ratios]
[1.0, 0.6667, 0.5]
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .engine.job import ExperimentJob, ExperimentResult
from .obs import run_recorded

if TYPE_CHECKING:  # pragma: no cover - import-time typing only
    import numpy as np

    from .alloc.partition import PartitionJob, PartitionResult
    from .online.replay import OnlineJob, ReplayResult
    from .profiling.engine import ProfileJob, ProfileResult
    from .resilience.policy import RetryPolicy
    from .sim.sweep import SweepJob, SweepResult
    from .trace.drift import DriftingWorkload

__all__ = [
    "ExperimentJob",
    "ExperimentResult",
    "export_csv",
    "online",
    "partition",
    "profile",
    "run",
    "sweep",
]

#: The drifting-workload presets :func:`online` accepts by name.
WORKLOAD_PRESETS = ("three-phase", "churn")


def export_csv(result: ExperimentResult, csv_path: str | Path) -> tuple[Path, int]:
    """Write one result's rows to ``csv_path``; returns ``(path, rows_written)``.

    The per-type conventions match the CLI's historical CSV output exactly:
    profile results write their curve rows; sweep results write the
    ``policy × capacity`` rows; partition results append a ``TOTAL`` row
    (the summary keyed as tenant ``TOTAL``); online results append a
    ``TOTAL`` row (the summary keyed as epoch ``TOTAL`` with the final
    allocation).
    """
    from .alloc.partition import PartitionResult
    from .analysis.reporting import write_csv
    from .online.replay import ReplayResult

    rows = result.rows()
    if isinstance(result, PartitionResult):
        total_row = dict(result.summary())
        total_row["tenant"] = "TOTAL"
        total_row["accesses"] = result.accesses
        rows = rows + [total_row]
    elif isinstance(result, ReplayResult):
        total_row = dict(result.summary())
        total_row["epoch"] = "TOTAL"
        total_row["allocation"] = "/".join(str(c) for c in result.final_allocation)
        rows = rows + [total_row]
    path = write_csv(csv_path, rows)
    return path, len(rows)


def run(
    job: ExperimentJob,
    *,
    workload: "DriftingWorkload | None" = None,
    workers: int = 1,
    policy: "RetryPolicy | None" = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> ExperimentResult:
    """Execute one already-built experiment job on the engine substrate.

    Dispatches on the job type (:class:`~repro.profiling.engine.ProfileJob`,
    :class:`~repro.sim.sweep.SweepJob`,
    :class:`~repro.alloc.partition.PartitionJob` or
    :class:`~repro.online.replay.OnlineJob`).  ``workload`` is required for —
    and only accepted by — online jobs.  ``workers`` never changes any
    result; the online replay runs in one process and rejects it.

    The fault-tolerance knobs apply to the job types that support them:
    ``policy`` (a :class:`repro.resilience.RetryPolicy`) hardens the process
    pool of sweep jobs, and ``checkpoint_dir`` / ``checkpoint_every`` /
    ``resume`` give online and sweep jobs crash-safe progress snapshots and
    bit-identical resumption (see :mod:`repro.resilience`).  Passing any of
    them with a job type that does not support it is an error.
    """
    from .alloc.partition import PartitionJob, run_partition
    from .online.replay import OnlineJob, run_replay
    from .profiling.engine import ProfileJob, run_jobs
    from .sim.sweep import SweepJob, run_sweep

    snapshots = dict(checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every, resume=resume)
    resilient = policy is not None or checkpoint_dir is not None or resume
    if isinstance(job, OnlineJob):
        if workload is None:
            raise ValueError("online jobs need a workload= (a DriftingWorkload or preset)")
        if workers != 1 or policy is not None:
            raise ValueError("workers=/policy= do not apply to online jobs: the replay never uses the process pool")
        runner = lambda: run_replay(workload, job, **snapshots)  # noqa: E731
        command = "online"
    elif workload is not None:
        raise ValueError(f"workload= only applies to online jobs, got {type(job).__name__}")
    elif isinstance(job, SweepJob):
        runner = lambda: run_sweep(job, workers=workers, policy=policy, **snapshots)  # noqa: E731
        command = "sweep"
    elif resilient:
        raise ValueError(
            f"policy=/checkpoint_dir=/resume= apply to online and sweep jobs only, got {type(job).__name__}"
        )
    elif isinstance(job, PartitionJob):
        runner = lambda: run_partition(job, workers=workers)  # noqa: E731
        command = "partition"
    elif isinstance(job, ProfileJob):
        runner = lambda: run_jobs([job], workers=workers)[0]  # noqa: E731
        command = "profile"
    else:
        raise TypeError(f"unknown experiment job type {type(job).__name__}")
    result = run_recorded(runner, metrics_path, command, seed=getattr(job, "seed", None))
    if csv_path is not None:
        export_csv(result, csv_path)
    return result


def profile(
    traces: "np.ndarray | str | Path | ProfileJob | Sequence[Any]",
    *,
    workers: int = 1,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    **knobs: Any,
) -> "ProfileResult | list[ProfileResult]":
    """Miss-ratio curve(s) of one trace or a batch, via the profiling engine.

    ``traces`` is a trace array, a trace-file path, a prepared
    :class:`~repro.profiling.engine.ProfileJob`, or a list/tuple of any mix;
    a batch input returns a list of results in input order (fanned across
    ``workers``), a single input returns one result.  ``knobs`` are
    :class:`~repro.profiling.engine.ProfileJob` fields (``mode``, ``rate``,
    ``seed``, ``name``, ...) for every array or path input; a path's
    ``name`` defaults to the file's stem.  ``csv_path`` (single input only)
    writes the curve's ``cache_size, miss_ratio`` rows.
    """
    import numpy as np

    from .profiling.engine import ProfileJob, run_jobs

    single = not isinstance(traces, (list, tuple))
    specs = [traces] if single else list(traces)
    jobs = []
    for spec in specs:
        if isinstance(spec, ProfileJob):
            jobs.append(spec)
        elif isinstance(spec, (str, Path)):
            jobs.append(ProfileJob(path=str(spec), **{"name": Path(spec).stem, **knobs}))
        else:
            jobs.append(ProfileJob(trace=np.asarray(spec), **knobs))
    if csv_path is not None and len(jobs) != 1:
        raise ValueError("csv_path= requires exactly one trace")
    results = run_recorded(
        lambda: run_jobs(jobs, workers=workers), metrics_path, "profile", seed=int(jobs[0].seed) if jobs else None
    )
    if csv_path is not None:
        export_csv(results[0], csv_path)
    return results[0] if single else results


def sweep(
    trace: "np.ndarray | None" = None,
    *,
    path: str | Path | None = None,
    workers: int = 1,
    policy: "RetryPolicy | None" = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    **knobs: Any,
) -> "SweepResult":
    """Evaluate many cache configurations over one trace in one (or few) passes.

    Exactly one of ``trace`` (integer array) or ``path`` (text trace file)
    selects the workload; ``knobs`` are :class:`~repro.sim.sweep.SweepJob`
    fields (``policies``, ``capacities``, ``ways``, ``seed``, ``name``).
    ``policy`` / ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` are
    the fault-tolerance knobs of :func:`repro.sim.sweep.run_sweep`.
    """
    from .sim.sweep import SweepJob

    job = SweepJob(trace=trace, path=str(path) if path is not None else None, **knobs)
    return run(
        job,
        workers=workers,
        policy=policy,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        csv_path=csv_path,
        metrics_path=metrics_path,
    )


def partition(
    tenants: Sequence,
    budget: int,
    *,
    workers: int = 1,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    **knobs: Any,
) -> "PartitionResult":
    """Divide a shared cache ``budget`` among ``tenants`` and validate the split.

    ``tenants`` is a sequence of :class:`~repro.trace.tenancy.TenantSpec`;
    ``knobs`` are :class:`~repro.alloc.partition.PartitionJob` fields
    (``method``, ``mode``, ``rate``, ``unit``, ``seed``, ``name``, ...).
    """
    from .alloc.partition import PartitionJob

    job = PartitionJob(tenants=tuple(tenants), budget=budget, **knobs)
    return run(job, workers=workers, csv_path=csv_path, metrics_path=metrics_path)


def online(
    workload: "DriftingWorkload | str",
    budget: int,
    window: int,
    epoch: int,
    *,
    length: int = 6000,
    seed: int = 7,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    **knobs: Any,
) -> "ReplayResult":
    """Replay a drifting workload under static vs. adaptive vs. oracle partitioning.

    ``workload`` is a :class:`~repro.trace.drift.DriftingWorkload` or one of
    the presets ``"three-phase"`` / ``"churn"`` (built with ``length`` and
    ``seed``, and naming the run unless ``name`` is given; ``length`` and
    ``seed`` are ignored for an already-built workload).  ``knobs`` are
    :class:`~repro.online.replay.OnlineJob` fields (``method``, ``rate``,
    ``threshold``, ``name``, ...); ``checkpoint_dir`` / ``checkpoint_every``
    / ``resume`` are the fault-tolerance knobs of
    :func:`repro.online.replay.run_replay`.
    """
    from .engine.job import check_choice
    from .online.replay import OnlineJob

    preset = workload if isinstance(workload, str) else None
    if preset is not None:
        check_choice("workload", preset, WORKLOAD_PRESETS)
        knobs.setdefault("name", preset)
    job = OnlineJob(budget=budget, window=window, epoch=epoch, **knobs)
    if preset is not None:
        from .trace.drift import tenant_churn, three_phase_pair

        workload = (three_phase_pair if preset == "three-phase" else tenant_churn)(length, seed=seed)
    return run(
        job,
        workload=workload,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        csv_path=csv_path,
        metrics_path=metrics_path,
    )
