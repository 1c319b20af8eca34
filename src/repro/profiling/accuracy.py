"""Error metrics between approximate and exact miss-ratio curves.

The approximate profilers trade accuracy for cost; this module quantifies the
trade so tests and benchmarks can assert bounds on it.  Curves of different
lengths are compared under the same convention as
:meth:`repro.cache.mrc.MissRatioCurve.__getitem__`: cache sizes beyond a
curve's last point reuse its final value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.mrc import MissRatioCurve

__all__ = [
    "CurveComparison",
    "curve_values",
    "mean_absolute_error",
    "compare_curves",
]


def curve_values(curve: MissRatioCurve, max_cache_size: int) -> np.ndarray:
    """The curve evaluated at every cache size ``1 .. max_cache_size``.

    Sizes beyond the curve's length clamp to the final ratio, matching
    ``curve[c]`` indexing.
    """
    if max_cache_size < 1:
        raise ValueError(f"max_cache_size must be >= 1, got {max_cache_size}")
    ratios = curve.ratios
    if ratios.size >= max_cache_size:
        return ratios[:max_cache_size]
    return np.concatenate([ratios, np.full(max_cache_size - ratios.size, ratios[-1])])


@dataclass(frozen=True)
class CurveComparison:
    """Summary of the difference between two miss-ratio curves."""

    mean_absolute_error: float
    max_absolute_error: float
    cache_sizes: int


def compare_curves(
    approx: MissRatioCurve,
    exact: MissRatioCurve,
    *,
    max_cache_size: int | None = None,
) -> CurveComparison:
    """Compare an approximate curve against a reference curve.

    By default the comparison spans ``1 .. max(len(approx), len(exact))`` so
    neither curve's tail escapes measurement.
    """
    limit = int(max_cache_size) if max_cache_size is not None else max(approx.max_cache_size, exact.max_cache_size)
    a = curve_values(approx, limit)
    b = curve_values(exact, limit)
    diff = np.abs(a - b)
    return CurveComparison(
        mean_absolute_error=float(diff.mean()),
        max_absolute_error=float(diff.max()),
        cache_sizes=limit,
    )


def mean_absolute_error(
    approx: MissRatioCurve,
    exact: MissRatioCurve,
    *,
    max_cache_size: int | None = None,
) -> float:
    """Mean absolute miss-ratio difference over the compared cache sizes."""
    return compare_curves(approx, exact, max_cache_size=max_cache_size).mean_absolute_error
