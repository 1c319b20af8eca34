"""Approximate MRC profiling: sampling, streaming models, batch execution.

The exact miss-ratio-curve machinery in :mod:`repro.cache` processes every
reference of a materialised trace in one process.  This subsystem provides
the production-profiler counterparts, each trading a controlled amount of
accuracy for orders-of-magnitude cost reductions:

:mod:`repro.profiling.shards`
    SHARDS-style spatially-hashed sampling (fixed-rate and fixed-size) with
    distance rescaling and sample-size correction.
:mod:`repro.profiling.reuse`
    A one-pass, bounded-memory streaming reuse-time profiler and the
    average-eviction-time (AET) conversion to a miss-ratio curve; works on
    generator-backed traces that are never materialised.
:mod:`repro.profiling.engine`
    ``ProfileJob`` specs, one per trace, fanned over the shared process pool
    of :mod:`repro.engine.runner`.
:mod:`repro.profiling.accuracy`
    Mean/max absolute-error comparison of approximate vs. exact curves, used
    by the tests and benchmarks to assert error bounds.

Examples
--------
>>> from repro.profiling import shards_mrc, mean_absolute_error
>>> from repro.cache import mrc_from_trace
>>> from repro.trace import zipfian_trace
>>> trace = zipfian_trace(20000, 512, exponent=0.8, rng=7).accesses
>>> approx = shards_mrc(trace, rate=0.1)      # ~10x less work than exact
>>> exact = mrc_from_trace(trace)
>>> mean_absolute_error(approx, exact) < 0.05
True
"""

from .accuracy import CurveComparison, compare_curves, curve_values, mean_absolute_error
from .engine import ProfileJob, ProfileResult, run_job, run_jobs
from .reuse import ReuseTimeHistogram, ReuseTimeProfiler, reuse_mrc
from .shards import (
    HASH_SPACE,
    adaptive_rate,
    sample_trace,
    scaled_distance_histogram,
    shards_mrc,
    spatial_hash,
)

__all__ = [
    "CurveComparison",
    "compare_curves",
    "curve_values",
    "mean_absolute_error",
    "ProfileJob",
    "ProfileResult",
    "run_job",
    "run_jobs",
    "ReuseTimeHistogram",
    "ReuseTimeProfiler",
    "reuse_mrc",
    "HASH_SPACE",
    "adaptive_rate",
    "sample_trace",
    "scaled_distance_histogram",
    "shards_mrc",
    "spatial_hash",
]
