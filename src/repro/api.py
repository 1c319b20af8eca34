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
process pool — never changes a result).  The CLI subcommands are thin
wrappers over these functions.

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


def _jobs_module():
    """The four job types, imported lazily (keeps ``import repro.api`` light)."""
    from .alloc.partition import PartitionJob
    from .online.replay import OnlineJob
    from .profiling.engine import ProfileJob
    from .sim.sweep import SweepJob

    return ProfileJob, SweepJob, PartitionJob, OnlineJob


def _recorded(callable_, metrics_path: str | Path | None, command: str, seed: int | None):
    """Run ``callable_`` and, with ``metrics_path``, export its metrics JSONL."""
    if metrics_path is None:
        return callable_()
    from .obs import MetricsRegistry, RunManifest, recording, write_jsonl

    registry = MetricsRegistry()
    with recording(registry):
        result = callable_()
    manifest = RunManifest.collect(command, argv=[], seed=seed)
    write_jsonl(metrics_path, registry, manifest)
    return result


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
    ProfileJob, SweepJob, PartitionJob, OnlineJob = _jobs_module()
    resilient = policy is not None or checkpoint_dir is not None or resume
    if isinstance(job, OnlineJob):
        if workload is None:
            raise ValueError("online jobs need a workload= (a DriftingWorkload or preset)")
        if workers != 1 or policy is not None:
            raise ValueError("workers=/policy= do not apply to online jobs: the replay never uses the process pool")
        from .online.replay import run_replay

        runner = lambda: run_replay(  # noqa: E731
            workload,
            job,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        command = "online"
    elif workload is not None:
        raise ValueError(f"workload= only applies to online jobs, got {type(job).__name__}")
    elif isinstance(job, SweepJob):
        from .sim.sweep import run_sweep

        runner = lambda: run_sweep(  # noqa: E731
            job,
            workers=workers,
            policy=policy,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )
        command = "sweep"
    elif resilient:
        raise ValueError(
            f"policy=/checkpoint_dir=/resume= apply to online and sweep jobs only, got {type(job).__name__}"
        )
    elif isinstance(job, PartitionJob):
        from .alloc.partition import run_partition

        runner = lambda: run_partition(job, workers=workers)  # noqa: E731
        command = "partition"
    elif isinstance(job, ProfileJob):
        from .profiling.engine import run_jobs

        runner = lambda: run_jobs([job], workers=workers)[0]  # noqa: E731
        command = "profile"
    else:
        raise TypeError(f"unknown experiment job type {type(job).__name__}")
    result = _recorded(runner, metrics_path, command, getattr(job, "seed", None))
    if csv_path is not None:
        export_csv(result, csv_path)
    return result


def profile(
    traces: "np.ndarray | str | Path | ProfileJob | Sequence[Any]",
    *,
    mode: str = "shards",
    rate: float = 0.01,
    smax: int | None = None,
    seed: int = 0,
    n_seeds: int = 2,
    max_cache_size: int | None = None,
    name: str | None = None,
    workers: int = 1,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> "ProfileResult | list[ProfileResult]":
    """Miss-ratio curve(s) of one trace or a batch, via the profiling engine.

    ``traces`` is a trace array, a trace-file path, a prepared
    :class:`~repro.profiling.engine.ProfileJob`, or a list/tuple of any mix;
    a batch input returns a list of results in input order (fanned across
    ``workers``), a single input returns one result.  ``csv_path`` (single
    input only) writes the curve's ``cache_size, miss_ratio`` rows.
    """
    import numpy as np

    from .profiling.engine import ProfileJob, run_jobs

    single = not isinstance(traces, (list, tuple))
    specs = [traces] if single else list(traces)
    jobs = []
    for spec in specs:
        if isinstance(spec, ProfileJob):
            jobs.append(spec)
            continue
        common = dict(mode=mode, rate=rate, smax=smax, seed=seed, n_seeds=n_seeds, max_cache_size=max_cache_size)
        if isinstance(spec, (str, Path)):
            jobs.append(ProfileJob(path=str(spec), name=name or Path(spec).stem, **common))
        else:
            jobs.append(ProfileJob(trace=np.asarray(spec), name=name or "trace", **common))
    if csv_path is not None and len(jobs) != 1:
        raise ValueError("csv_path= requires exactly one trace")
    results = _recorded(
        lambda: run_jobs(jobs, workers=workers), metrics_path, "profile", int(jobs[0].seed) if jobs else None
    )
    if csv_path is not None:
        export_csv(results[0], csv_path)
    return results[0] if single else results


def sweep(
    trace: "np.ndarray | None" = None,
    *,
    path: str | Path | None = None,
    name: str = "trace",
    policies: Sequence[str] = ("lru",),
    capacities: Sequence[int] = (),
    ways: int = 4,
    seed: int = 0,
    workers: int = 1,
    policy: "RetryPolicy | None" = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> "SweepResult":
    """Evaluate many cache configurations over one trace in one (or few) passes.

    Exactly one of ``trace`` (integer array) or ``path`` (text trace file)
    selects the workload; the remaining knobs mirror
    :class:`~repro.sim.sweep.SweepJob`.  ``policy`` / ``checkpoint_dir`` /
    ``checkpoint_every`` / ``resume`` are the fault-tolerance knobs of
    :func:`repro.sim.sweep.run_sweep`.
    """
    from .sim.sweep import SweepJob

    job = SweepJob(
        trace=trace,
        path=str(path) if path is not None else None,
        name=name,
        policies=tuple(policies),
        capacities=tuple(capacities),
        ways=ways,
        seed=seed,
    )
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
    method: str = "hull",
    mode: str = "exact",
    rate: float = 0.01,
    smax: int | None = None,
    profile_seed: int = 0,
    unit: int = 1,
    seed: int = 0,
    name: str = "partition",
    workers: int = 1,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> "PartitionResult":
    """Divide a shared cache ``budget`` among ``tenants`` and validate the split.

    ``tenants`` is a sequence of :class:`~repro.trace.tenancy.TenantSpec`;
    the remaining knobs mirror :class:`~repro.alloc.partition.PartitionJob`.
    """
    from .alloc.partition import PartitionJob

    job = PartitionJob(
        tenants=tuple(tenants),
        budget=budget,
        method=method,
        mode=mode,
        rate=rate,
        smax=smax,
        profile_seed=profile_seed,
        unit=unit,
        seed=seed,
        name=name,
    )
    return run(job, workers=workers, csv_path=csv_path, metrics_path=metrics_path)


def online(
    workload: "DriftingWorkload | str",
    budget: int,
    window: int,
    epoch: int,
    *,
    length: int = 6000,
    seed: int = 7,
    method: str = "hull",
    decay: float = 0.0,
    rate: float = 1.0,
    move_cost: float = 1.0,
    horizon_epochs: int = 8,
    threshold: float = 0.03,
    hysteresis: int = 1,
    realloc_epochs: int = 4,
    unit: int = 1,
    profile_seed: int = 0,
    name: str | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    csv_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> "ReplayResult":
    """Replay a drifting workload under static vs. adaptive vs. oracle partitioning.

    ``workload`` is a :class:`~repro.trace.drift.DriftingWorkload` or one of
    the presets ``"three-phase"`` / ``"churn"`` (built with ``length`` and
    ``seed``; both are ignored for an already-built workload).  The remaining
    knobs mirror :class:`~repro.online.replay.OnlineJob`;
    ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` are the
    fault-tolerance knobs of :func:`repro.online.replay.run_replay`.
    """
    from .online.replay import OnlineJob

    if isinstance(workload, str):
        from .engine.job import check_choice
        from .trace.drift import tenant_churn, three_phase_pair

        check_choice("workload", workload, WORKLOAD_PRESETS)
        preset = workload
        builder = three_phase_pair if preset == "three-phase" else tenant_churn
        workload = builder(length, seed=seed)
        name = name or preset
    job = OnlineJob(
        budget=budget,
        window=window,
        epoch=epoch,
        method=method,
        decay=decay,
        rate=rate,
        move_cost=move_cost,
        horizon_epochs=horizon_epochs,
        threshold=threshold,
        hysteresis=hysteresis,
        realloc_epochs=realloc_epochs,
        unit=unit,
        profile_seed=profile_seed,
        name=name or "online",
    )
    return run(
        job,
        workload=workload,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        csv_path=csv_path,
        metrics_path=metrics_path,
    )
