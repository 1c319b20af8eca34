"""Sharded, parallel execution of profiling jobs.

Two fan-out shapes cover the scale axis of the profiling subsystem:

* **A batch of traces** — :func:`run_jobs` maps :class:`ProfileJob` specs
  (trace array or file path + profiling mode) over a ``multiprocessing``
  worker pool, one job per trace, and collects :class:`ProfileResult`\\ s.
* **Chunks of one long trace** — :func:`parallel_reuse_histogram` splits a
  trace into contiguous chunks, computes a :class:`ChunkPartial` per chunk in
  parallel, and merges the partials *in chunk order* into a reuse-time
  histogram that is bit-for-bit identical to what a single sequential pass
  would produce (asserted in ``tests/profiling/test_engine.py``).

The chunk partial records, besides the within-chunk reuse-time histogram
(computed with vectorised NumPy, so the parallel path is also the fast path
for in-memory arrays), the global position of each item's first and last
access in the chunk.  Merging resolves every cross-chunk reuse exactly: an
item first touched in chunk ``i`` whose most recent prior access lives in
chunk ``j < i`` contributes the same reuse time the sequential pass would
have recorded, and items never seen before count as cold misses.

``workers=1`` runs everything inline (no pool), which keeps single-process
results trivially deterministic and makes the parallel path a pure
performance knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cache._native import native_kernels
from ..cache.mrc import MissRatioCurve, mrc_from_trace
from ..engine.job import PROFILE_MODES, check_choice
from ..engine.runner import check_workers, pool_map
from ..obs import get_registry, span
from .reuse import ReuseTimeHistogram
from .shards import shards_mrc

__all__ = [
    "ProfileJob",
    "ProfileResult",
    "run_job",
    "run_jobs",
    "ChunkPartial",
    "chunk_partial",
    "merge_partials",
    "parallel_reuse_histogram",
    "parallel_reuse_mrc",
]

#: Profiling modes (the engine-wide set).
MODES = PROFILE_MODES


@dataclass(frozen=True)
class ProfileJob:
    """Specification of one profiling task (picklable, so pool-dispatchable).

    Exactly one of ``trace`` (an integer array) or ``path`` (a text trace
    file readable by :func:`repro.trace.io.read_text`) must be provided.
    """

    trace: np.ndarray | None = None
    path: str | None = None
    name: str = "trace"
    mode: str = "shards"
    rate: float = 0.01
    smax: int | None = None
    seed: int = 0
    n_seeds: int = 2
    fine_limit: int = 4096
    coarse_per_octave: int = 256
    max_cache_size: int | None = None

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
        return [{"cache_size": c + 1, "miss_ratio": ratio} for c, ratio in enumerate(self.curve.ratios)]

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


def run_job(job: ProfileJob, *, workers: int = 1) -> ProfileResult:
    """Execute one profiling job in the current process.

    ``workers > 1`` only matters in ``reuse`` mode: it fans the trace's
    chunk partials across a process pool (the curve does not change).
    """
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
            histogram = parallel_reuse_histogram(
                arr,
                workers=workers,
                fine_limit=job.fine_limit,
                coarse_per_octave=job.coarse_per_octave,
            )
            curve = histogram.to_mrc(job.max_cache_size or max(histogram.cold, 1))
    get_registry().counter("profiling.accesses", mode=job.mode).add(int(arr.size))
    return ProfileResult(name=job.name, mode=job.mode, curve=curve, accesses=int(arr.size), seconds=timer.seconds)


def run_jobs(jobs: list[ProfileJob], *, workers: int = 1) -> list[ProfileResult]:
    """Run a batch of profiling jobs, fanning across ``workers`` processes.

    Results are returned in job order regardless of completion order.  A
    single ``reuse``-mode job with ``workers > 1`` is sharded *within* the
    trace (parallel chunk partials) instead of occupying one worker.
    """
    workers = check_workers(workers)
    if len(jobs) == 1 and workers > 1 and jobs[0].mode == "reuse":
        return [run_job(jobs[0], workers=workers)]
    return pool_map(run_job, jobs, workers=workers)


# --------------------------------------------------------------------------- #
# Chunked streaming: mergeable partials over one long trace
# --------------------------------------------------------------------------- #
@dataclass
class ChunkPartial:
    """Mergeable profiling state of one contiguous chunk of a trace.

    ``histogram`` holds only the reuse times whose *previous* access lies in
    the same chunk; first accesses per item are deferred to the merge, which
    resolves them against the preceding chunks' ``last_access`` maps.  All
    positions are global trace positions.
    """

    offset: int
    length: int
    histogram: ReuseTimeHistogram
    first_access: dict[int, int] = field(default_factory=dict)
    last_access: dict[int, int] = field(default_factory=dict)


def _previous_occurrences(arr: np.ndarray) -> np.ndarray:
    """Position of each reference's previous access to its item (``-1`` when first)."""
    native = native_kernels()
    if native is not None:
        return native.previous(arr)
    # A stable sort puts equal items next to each other in access order.
    order = np.argsort(arr, kind="stable")
    sorted_items = arr[order]
    same = sorted_items[1:] == sorted_items[:-1]
    prev = np.full(arr.size, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _reuse_time_counts(arr: np.ndarray) -> np.ndarray:
    """``counts[d]``: references whose item was last accessed ``d`` references earlier; ``counts[0]``: cold ones."""
    native = native_kernels()
    if native is not None:
        return native.reuse_time_counts(arr)
    prev = _previous_occurrences(arr)
    times = np.arange(arr.size, dtype=np.int64) - prev
    times[prev < 0] = 0
    return np.bincount(times, minlength=arr.size + 1)


def chunk_partial(
    chunk: np.ndarray,
    offset: int,
    *,
    fine_limit: int = 4096,
    coarse_per_octave: int = 256,
) -> ChunkPartial:
    """Profile one chunk independently of every other chunk (vectorised)."""
    arr = np.asarray(chunk, dtype=np.int64)
    n = arr.size
    histogram = ReuseTimeHistogram(fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)
    if n == 0:
        return ChunkPartial(offset=int(offset), length=0, histogram=histogram)
    prev = _previous_occurrences(arr)
    repeat = prev >= 0
    histogram.record_reuses(np.flatnonzero(repeat) - prev[repeat])
    first_positions = np.flatnonzero(prev < 0)
    last_mask = np.ones(n, dtype=bool)
    last_mask[prev[prev >= 0]] = False
    last_positions = np.flatnonzero(last_mask)
    offset = int(offset)
    first_access = dict(zip(arr[first_positions].tolist(), (first_positions + offset).tolist()))
    last_access = dict(zip(arr[last_positions].tolist(), (last_positions + offset).tolist()))
    return ChunkPartial(
        offset=offset,
        length=int(n),
        histogram=histogram,
        first_access=first_access,
        last_access=last_access,
    )


def merge_partials(partials: list[ChunkPartial]) -> ReuseTimeHistogram:
    """Merge chunk partials (sorted by offset) into the sequential-pass histogram."""
    if not partials:
        raise ValueError("need at least one chunk partial to merge")
    ordered = sorted(partials, key=lambda p: p.offset)
    first = ordered[0]
    merged = ReuseTimeHistogram(
        fine_limit=first.histogram.fine_limit,
        coarse_per_octave=first.histogram.coarse_per_octave,
    )
    last_seen: dict[int, int] = {}
    for partial in ordered:
        merged.merge(partial.histogram)
        # Resolve this chunk's first accesses against everything before it;
        # each item only reads its own last_seen entry, so order is free.
        seen = [(position, last_seen.get(item)) for item, position in partial.first_access.items()]
        reuses = [position - last for position, last in seen if last is not None]
        merged.record_cold(len(seen) - len(reuses))
        merged.record_reuses(np.asarray(reuses, dtype=np.int64))
        last_seen.update(partial.last_access)
    return merged


def _chunk_worker(args: tuple[np.ndarray, int, int, int]) -> ChunkPartial:
    chunk, offset, fine_limit, coarse_per_octave = args
    return chunk_partial(chunk, offset, fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)


def parallel_reuse_histogram(
    trace: np.ndarray,
    *,
    workers: int = 1,
    chunks: int | None = None,
    fine_limit: int = 4096,
    coarse_per_octave: int = 256,
) -> ReuseTimeHistogram:
    """Reuse-time histogram of a trace, computed over parallel chunk partials.

    The result is independent of ``workers`` and ``chunks`` (bit-identical to
    a single sequential pass); both knobs only change how the work is spread.
    """
    workers = check_workers(workers)
    arr = np.asarray(trace, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("cannot profile an empty trace")
    pieces = max(1, int(chunks) if chunks is not None else workers)
    pieces = min(pieces, arr.size)
    if pieces == 1:
        # One chunk leaves nothing to merge: every first access is cold.
        histogram = ReuseTimeHistogram(fine_limit=fine_limit, coarse_per_octave=coarse_per_octave)
        histogram.record_time_counts(_reuse_time_counts(arr))
        return histogram
    splits = np.array_split(arr, pieces)
    offsets = np.cumsum([0] + [len(s) for s in splits[:-1]])
    tasks = [(split, int(offset), fine_limit, coarse_per_octave) for split, offset in zip(splits, offsets)]
    partials = pool_map(_chunk_worker, tasks, workers=workers)
    return merge_partials(partials)


def parallel_reuse_mrc(
    trace: np.ndarray,
    *,
    workers: int = 1,
    chunks: int | None = None,
    max_cache_size: int | None = None,
    fine_limit: int = 4096,
    coarse_per_octave: int = 256,
) -> MissRatioCurve:
    """Miss-ratio curve from :func:`parallel_reuse_histogram` via the AET model."""
    histogram = parallel_reuse_histogram(
        trace,
        workers=workers,
        chunks=chunks,
        fine_limit=fine_limit,
        coarse_per_octave=coarse_per_octave,
    )
    return histogram.to_mrc(max_cache_size or max(histogram.cold, 1))
