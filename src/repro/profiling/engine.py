"""Execution of profiling jobs over a batch of traces.

:func:`run_jobs` maps :class:`ProfileJob` specs (trace array or file path +
profiling mode) over a ``multiprocessing`` worker pool, one job per trace,
and collects :class:`ProfileResult`\\ s in job order.  ``workers=1`` runs
everything inline (no pool); the worker count never changes a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cache.mrc import MissRatioCurve, mrc_from_trace
from ..engine.job import PROFILE_MODES, check_choice, knob
from ..engine.runner import pool_map
from ..obs import get_registry, span
from .reuse import reuse_mrc
from .shards import shards_mrc

__all__ = [
    "ProfileJob",
    "ProfileResult",
    "run_job",
    "run_jobs",
]

#: Profiling modes (the engine-wide set).
MODES = PROFILE_MODES


@dataclass(frozen=True)
class ProfileJob:
    """Specification of one profiling task (picklable, so pool-dispatchable).

    Exactly one of ``trace`` (an integer array) or ``path`` (a text trace
    file readable by :func:`repro.trace.io.read_text`) must be provided.
    The ``reuse`` mode buckets reuse times in the default layout of
    :class:`~repro.profiling.reuse.ReuseTimeHistogram`.
    """

    trace: np.ndarray | None = None
    path: str | None = None
    name: str = "trace"
    mode: str = knob(
        "shards", "exact pipeline, SHARDS sampling, or one-pass reuse-time (AET) model", choices=PROFILE_MODES
    )
    rate: float = knob(0.01, "SHARDS sampling rate R")
    smax: int | None = knob(None, "fixed-size SHARDS: max distinct sampled items")
    seed: int = knob(0, "base hash seed for sampling")
    n_seeds: int = knob(2, "number of pooled SHARDS hash functions", flag="--seeds")
    max_cache_size: int | None = knob(None, "largest cache size to report", flag="--max-size")

    def __post_init__(self):
        if (self.trace is None) == (self.path is None):
            raise ValueError("provide exactly one of trace= or path=")
        check_choice("mode", self.mode, MODES)


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of one :class:`ProfileJob`."""

    name: str
    mode: str
    curve: MissRatioCurve
    accesses: int
    seconds: float

    def rows(self) -> list[dict]:
        """Per-cache-size curve rows for tables and CSV export."""
        return [{"cache_size": c + 1, "miss_ratio": ratio} for c, ratio in enumerate(self.curve.ratios.tolist())]

    def summary(self) -> dict:
        """One aggregate row (name, mode, size and timing of the profile)."""
        return {
            "job": self.name,
            "mode": self.mode,
            "accesses": self.accesses,
            "curve_points": self.curve.max_cache_size,
            "seconds": self.seconds,
        }


def _load(job: ProfileJob) -> np.ndarray:
    if job.trace is not None:
        return np.asarray(job.trace)
    from ..trace.io import read_text

    return read_text(Path(job.path)).accesses


def run_job(job: ProfileJob) -> ProfileResult:
    """Execute one profiling job in the current process."""
    arr = _load(job)
    with span("profiling.job", mode=job.mode) as timer:
        if job.mode == "exact":
            curve = mrc_from_trace(arr, max_cache_size=job.max_cache_size)
        elif job.mode == "shards":
            curve = shards_mrc(
                arr,
                job.rate,
                smax=job.smax,
                seed=job.seed,
                n_seeds=job.n_seeds,
                max_cache_size=job.max_cache_size,
            )
        else:  # reuse
            curve = reuse_mrc(arr, max_cache_size=job.max_cache_size or None)
    get_registry().counter("profiling.accesses", mode=job.mode).add(int(arr.size))
    return ProfileResult(name=job.name, mode=job.mode, curve=curve, accesses=int(arr.size), seconds=timer.seconds)


def run_jobs(jobs: list[ProfileJob], *, workers: int = 1) -> list[ProfileResult]:
    """Run a batch of profiling jobs, fanning across ``workers`` processes.

    Results are returned in job order regardless of completion order.
    """
    return pool_map(run_job, jobs, workers=workers)
