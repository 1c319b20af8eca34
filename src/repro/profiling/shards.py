"""SHARDS-style spatially-hashed sampling for approximate miss-ratio curves.

Exact MRC construction (:func:`repro.cache.mrc.mrc_from_trace`) processes every
reference; SHARDS (*Spatially Hashed Approximate Reuse Distance Sampling*,
Waldspurger et al., FAST'15) instead samples the references of a pseudo-random
subset of *items*: an item is in the sample iff ``hash(item) mod P < T``, so
every reference to a sampled item is kept and the reuse structure of each
sampled item is preserved intact.  Stack distances measured on the sampled
sub-trace count only distinct *sampled* items, so they are rescaled by the
inverse sampling rate ``1/R`` to estimate true distances, and the resulting
histogram is renormalised to the expected sample size (the ``SHARDS-adj``
correction) to remove the bias introduced when popular items fall in or out
of the sample.

Two sampling policies are provided:

* **fixed-rate** — a constant rate ``R = T/P``; cost scales with ``R``.
* **fixed-size** — :func:`adaptive_rate` chooses the largest threshold that
  keeps at most ``smax`` distinct items in the sample, bounding memory and
  work regardless of the trace footprint (the rate-adaptation half of the
  SHARDS design, realised here as a threshold-selection pass).

Because a single hash function can place a very hot item just inside or just
outside the sample, :func:`shards_mrc` can pool the scaled histograms of
several independent hash seeds (``n_seeds``); pooling ``k`` seeds costs ``k``
times the single-seed work but reduces the head-item variance the same way a
``k``-fold larger rate would, while keeping the per-seed data structures
small.

Accuracy/cost dial: on a ``10^6``-reference Zipfian trace, ``rate=0.01`` with
the default two pooled seeds is roughly two orders of magnitude cheaper than
the exact curve and keeps the mean absolute MRC error around ``0.01``
(asserted in ``tests/profiling/test_shards.py``); ``rate=0.1`` roughly halves
that error for ten times the work.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..cache._native import native_kernels
from ..cache.mrc import MissRatioCurve
from ..cache.stack_distance import stack_distance_histogram

__all__ = [
    "HASH_SPACE",
    "spatial_hash",
    "rate_threshold",
    "sample_trace",
    "adaptive_rate",
    "scaled_distance_histogram",
    "histogram_to_mrc",
    "shards_mrc",
]

#: Size of the hash space the sampling threshold is expressed in (``P`` in the
#: SHARDS papers).  ``rate = threshold / HASH_SPACE``.
HASH_SPACE: int = 1 << 24

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser — a cheap, well-mixed 64-bit hash (vectorised)."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _tweak(seed: int) -> int:
    return (0xABCD0123 + int(seed) * _GOLDEN) & _MASK64


def spatial_hash(items: Sequence[int] | np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash item labels into ``[0, HASH_SPACE)`` deterministically.

    The same item always hashes to the same value for a given ``seed``, which
    is what makes the sampling *spatial*: either every reference to an item is
    in the sub-trace or none is.
    """
    arr = np.asarray(items).astype(np.uint64, copy=False)
    hashed = _splitmix64((arr << np.uint64(20)) ^ np.uint64(_tweak(seed)))
    return hashed & np.uint64(HASH_SPACE - 1)


def sampled_positions(items: np.ndarray, thresholds: Sequence[int], seeds: Sequence[int]) -> list[np.ndarray]:
    """Per ``(threshold, seed)`` pair, the positions of the references whose item hashes below it, in order.

    ``spatial_hash(items, seed) < threshold`` as positions: one pass of the
    native kernel over the trace for every pair where it is available, else
    the numpy hash per pair.
    """
    native = native_kernels()
    if native is None:
        return [np.flatnonzero(spatial_hash(items, s) < np.uint64(t)) for t, s in zip(thresholds, seeds)]
    tweaks = [_tweak(s) for s in seeds]
    return native.sample_positions(np.asarray(items), tweaks, HASH_SPACE - 1, [int(t) for t in thresholds])


@lru_cache(maxsize=256)
def rate_threshold(rate: float) -> int:
    """Quantise a sampling rate to its integer hash threshold ``T`` (validated).

    ``rate = T / HASH_SPACE``; every SHARDS consumer — the whole-trace
    profiler here and the windowed sketches in :mod:`repro.online.windowed` —
    must use this one quantisation so the same nominal rate always selects
    the same item sub-population.  Memoised per rate: the online engine asks
    for the same handful of thresholds on every epoch of every run.
    """
    if not 0.0 < float(rate) <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    return max(1, int(round(float(rate) * HASH_SPACE)))


def sample_trace(trace: Sequence[int] | np.ndarray, rate: float, *, seed: int = 0) -> tuple[np.ndarray, float]:
    """The spatially-sampled sub-trace and the effective sampling rate.

    ``rate`` is quantised to the ``HASH_SPACE`` grid; the returned effective
    rate is the one that must be used for distance rescaling.
    """
    arr = np.asarray(trace)
    threshold = rate_threshold(rate)
    return arr[sampled_positions(arr, [threshold], [seed])[0]], threshold / HASH_SPACE


def adaptive_rate(
    trace: Sequence[int] | np.ndarray,
    smax: int,
    *,
    seed: int = 0,
    assume_distinct: bool = False,
) -> float:
    """The largest sampling rate that keeps at most ``smax`` distinct items.

    This is the fixed-size flavour of SHARDS: instead of fixing the rate, fix
    the sample's item budget and let the threshold adapt to the footprint.
    The threshold is placed just above the ``smax``-th smallest distinct-item
    hash, so sampling with the returned rate retains exactly the ``smax``
    lowest-hashing items (fewer if the footprint is smaller).  Callers that
    already hold the deduplicated item set pass ``assume_distinct=True`` to
    skip the ``np.unique`` pass.
    """
    if smax < 1:
        raise ValueError(f"smax must be >= 1, got {smax}")
    items = np.asarray(trace)
    distinct = items if assume_distinct else np.unique(items)
    hashes = np.sort(spatial_hash(distinct, seed))
    if hashes.size <= smax:
        return 1.0
    threshold = int(hashes[smax - 1]) + 1
    return threshold / HASH_SPACE


def scaled_distance_histogram(sub_trace: np.ndarray, effective_rate: float) -> tuple[np.ndarray, int, int]:
    """Stack-distance histogram of a sub-trace, rescaled to full-trace cache sizes.

    Returns ``(hist, cold, sampled)`` where ``hist[c - 1]`` estimates the
    number of full-trace references that hit at cache size ``c`` but miss at
    ``c - 1``; sampled distances ``d`` count distinct *sampled* items and are
    mapped to ``ceil(d / R)``.
    """
    hist, cold = stack_distance_histogram(sub_trace)
    if hist.size == 0:
        return np.zeros(1, dtype=np.float64), cold, int(sub_trace.size)
    distances = np.arange(1, hist.size + 1, dtype=np.float64)
    scaled = np.ceil(distances / effective_rate).astype(np.int64)
    full = np.zeros(int(scaled.max()), dtype=np.float64)
    full[scaled - 1] = hist  # rate <= 1, so distinct distances stay distinct
    return full, cold, int(sub_trace.size)


def histogram_to_mrc(
    histogram: np.ndarray,
    denominator: float,
    accesses: int,
    *,
    max_cache_size: int | None = None,
) -> MissRatioCurve:
    """Normalise a corrected distance histogram into a monotone miss-ratio curve.

    The shared tail of every SHARDS-style estimator — :func:`shards_mrc` here
    and the windowed sketches in :mod:`repro.online.windowed` — so the
    clamping/monotonisation convention cannot drift between them.
    ``denominator`` is the reference mass the cumulative hit counts are
    normalised by (expected sample size under the SHARDS-adj correction).
    """
    if max_cache_size is not None and max_cache_size < 1:
        raise ValueError(f"max_cache_size must be >= 1, got {max_cache_size}")
    if histogram.size == 0:
        raise ValueError("a miss-ratio curve needs at least one cache size")
    size = histogram.size if max_cache_size is None else max_cache_size
    return MissRatioCurve(ratios=histogram_ratios(histogram, denominator, size), accesses=int(accesses))


def histogram_ratios(histograms: np.ndarray, denominators, size: int) -> np.ndarray:
    """Miss ratios at sizes ``1 .. size`` along the last axis of corrected histograms, each row as if alone.

    A running sum, clamp and running minimum, then the last ratio held out (as ``curve[c]`` does).
    """
    ratios = np.empty((*histograms.shape[:-1], size), dtype=np.float64)
    head = ratios[..., : min(histograms.shape[-1], size)]
    np.cumsum(histograms[..., : head.shape[-1]], axis=-1, dtype=np.float64, out=head)
    head /= denominators
    np.subtract(1.0, head, out=head)
    np.minimum.accumulate(np.clip(head, 0.0, 1.0, out=head), axis=-1, out=head)
    ratios[..., head.shape[-1] :] = head[..., -1:]
    return ratios


def shards_mrc(
    trace: Sequence[int] | np.ndarray,
    rate: float = 0.01,
    *,
    smax: int | None = None,
    seed: int = 0,
    n_seeds: int = 2,
    max_cache_size: int | None = None,
) -> MissRatioCurve:
    """Approximate LRU miss-ratio curve by SHARDS sampling.

    The ``SHARDS-adj`` correction always applies: the curve is renormalised
    to the *expected* sample size, and the count mismatch is charged to the
    smallest cache size.

    Parameters
    ----------
    trace:
        The full reference trace (integer item labels).
    rate:
        Target sampling rate ``R``; ignored when ``smax`` is given.
    smax:
        Optional fixed-size budget: adapt the rate (per seed) so at most
        ``smax`` distinct items are sampled.
    seed, n_seeds:
        ``n_seeds`` independent hash functions (seeds ``seed .. seed+n_seeds-1``)
        are pooled; more seeds cost proportionally more but cut the variance
        contributed by hot items near the sampling threshold.
    max_cache_size:
        Crop or extend (with the final value) the returned curve to this
        length; by default the curve extends to the largest rescaled distance.
    """
    arr = np.asarray(trace)
    if arr.size == 0:
        raise ValueError("cannot build a miss-ratio curve for an empty trace")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")

    seeds = range(seed, seed + n_seeds)
    if smax is None:
        thresholds = [rate_threshold(rate)] * n_seeds
    else:
        distinct = np.unique(arr)
        thresholds = [rate_threshold(adaptive_rate(distinct, smax, seed=s, assume_distinct=True)) for s in seeds]
    histograms: list[np.ndarray] = []
    sampled_total = 0
    expected_total = 0.0
    for positions, threshold in zip(sampled_positions(arr, thresholds, seeds), thresholds):
        if positions.size == 0:
            continue
        effective = threshold / HASH_SPACE
        hist, _cold, sampled = scaled_distance_histogram(arr[positions], effective)
        histograms.append(hist)
        sampled_total += sampled
        expected_total += arr.size * effective
    if not histograms:
        raise ValueError("sampling produced an empty sub-trace for every seed; increase rate or smax")

    length = max(h.size for h in histograms)
    pooled = np.zeros(length, dtype=np.float64)
    for h in histograms:
        pooled[: h.size] += h
    pooled[0] += expected_total - sampled_total
    return histogram_to_mrc(pooled, expected_total, int(arr.size), max_cache_size=max_cache_size)
