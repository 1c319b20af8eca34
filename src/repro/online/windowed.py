"""Windowed / exponentially-decayed SHARDS miss-ratio-curve sketches.

The whole-trace profilers in :mod:`repro.profiling` answer "what was this
workload's MRC" *after* the fact; serving changing traffic needs the online
question "what is the MRC of the traffic I am seeing *right now*".  A
:class:`WindowedShardsSketch` maintains exactly that: it ingests references
incrementally, spatially samples them with the same hash family as
:func:`repro.profiling.shards.shards_mrc` (an item is sampled for every
reference or none, so reuse structure survives sampling), retains only the
sampled references of the last ``window`` trace positions, and on demand
produces the miss-ratio curve of that window — optionally weighting newer
references more via an exponential decay.

Design points:

* **Incremental** — :meth:`~WindowedShardsSketch.update` appends a batch and
  evicts references that fell out of the window; amortised cost is the
  sampling rate times the batch size.  Curve extraction runs the vectorised
  stack-distance pass over the (small) sampled buffer only.
* **Windowed or decayed** — with ``decay == 0`` every reference in the window
  counts equally, so at ``rate == 1.0`` the sketch's curve *equals* the exact
  MRC of the window (asserted by the metamorphic tests).  With ``decay > 0``
  a reference aged ``a`` positions carries weight ``exp(-decay * a)``, which
  smooths phase transitions without a hard cutoff.
* **Mergeable** — sketches of the same stream under independent hash seeds
  pool their scaled histograms (:func:`pooled_curve`), cutting the head-item
  variance exactly like the ``n_seeds`` knob of
  :func:`~repro.profiling.shards.shards_mrc`.
* **Deterministic** — state is a pure function of the ingested references and
  the constructor arguments; the re-partitioning engine in
  :mod:`repro.online.replay` relies on this to stay bit-identical, and a
  resumed replay rebuilds its windows by feeding fresh sketches the trace's
  last ``window`` positions again instead of restoring them from a snapshot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..cache.mrc import MissRatioCurve
from ..cache.stack_distance import COLD, stack_distances_vectorized
from ..profiling.shards import HASH_SPACE, histogram_to_mrc, rate_threshold, sampled_positions

__all__ = ["WindowSnapshot", "WindowedShardsSketch", "curve_of_snapshot", "pooled_curve"]


@dataclass(frozen=True)
class WindowSnapshot:
    """Immutable, picklable state of one sketch at one instant.

    ``items``/``positions`` are the sampled references currently in the
    window (global timeline positions, increasing); ``clock`` is the number
    of timeline positions elapsed (offered references plus
    :meth:`~WindowedShardsSketch.advance` gaps); ``offered`` counts the
    references actually offered to the sketch inside the window and
    ``offered_weight`` their decayed mass (equal to ``offered`` when
    ``decay == 0``).  Snapshots decouple curve extraction from sketch
    mutation, so the replay engine can fan :func:`curve_of_snapshot` calls
    across a process pool without racing the event loop.
    """

    items: np.ndarray
    positions: np.ndarray
    clock: int
    window: int
    decay: float
    effective_rate: float
    offered: int
    offered_weight: float

    @property
    def sampled(self) -> int:
        """Number of sampled references currently retained."""
        return int(self.items.size)

    @property
    def occupancy(self) -> int:
        """Number of timeline positions the window currently covers."""
        return min(self.clock, self.window)


class WindowedShardsSketch:
    """Incremental windowed/decayed SHARDS sketch of one reference stream.

    Parameters
    ----------
    window:
        Number of most-recent references the profile covers.
    decay:
        Exponential decay rate ``λ >= 0``: a reference aged ``a`` positions
        (the newest has age 0) weighs ``exp(-λ a)``.  ``0`` disables decay.
    rate:
        Spatial sampling rate ``R``; ``1.0`` keeps every reference (exact).
    seed:
        Hash seed of the spatial sampler (same family as
        :func:`repro.profiling.shards.spatial_hash`).

    Examples
    --------
    >>> sketch = WindowedShardsSketch(window=4, rate=1.0)
    >>> sketch.update([0, 1, 0, 1, 2, 1, 2, 1])
    >>> [round(r, 2) for r in sketch.curve().ratios]  # window is [2, 1, 2, 1]
    [1.0, 0.5]
    """

    def __init__(self, *, window: int, decay: float = 0.0, rate: float = 1.0, seed: int = 0):
        if int(window) < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if float(decay) < 0.0:
            raise ValueError(f"decay must be >= 0, got {decay}")
        self.window = int(window)
        self.decay = float(decay)
        self.seed = int(seed)
        self._threshold = rate_threshold(rate)
        self.effective_rate = self._threshold / HASH_SPACE
        self._items: np.ndarray = np.zeros(0, dtype=np.int64)
        self._positions: np.ndarray = np.zeros(0, dtype=np.int64)
        self._clock = 0
        # Contiguous [start, length] runs of *offered* timeline positions —
        # the exact denominator of the SHARDS-adj correction even when
        # advance() gaps mean the window is not fully offered to this sketch.
        self._segments: list[list[int]] = []

    @property
    def clock(self) -> int:
        """Number of timeline positions elapsed (offered references plus gaps)."""
        return self._clock

    @property
    def sampled(self) -> int:
        """Number of sampled references currently retained in the window."""
        return int(self._items.size)

    def update(self, batch: Sequence[int] | np.ndarray) -> None:
        """Ingest a batch of references and evict everything past the window."""
        arr = np.asarray(batch, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"batch must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            return
        start = self._clock
        self._clock += int(arr.size)
        if self._segments and self._segments[-1][0] + self._segments[-1][1] == start:
            self._segments[-1][1] += int(arr.size)
        else:
            self._segments.append([start, int(arr.size)])
        (sampled,) = sampled_positions(arr, [self._threshold], [self.seed])
        if sampled.size:
            self._items = np.concatenate([self._items, arr[sampled]])
            self._positions = np.concatenate([self._positions, start + sampled])
        self._evict()

    def advance(self, count: int) -> None:
        """Advance the clock by ``count`` positions without ingesting references.

        This is how a *shared* timeline is imposed on per-tenant sketches: the
        replay engine advances every sketch past the events of the *other*
        tenants, so windows age in composed-trace time and a tenant that goes
        quiet (departure, load shift) drains out of its own window instead of
        pinning a stale profile forever.
        """
        if int(count) < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._clock += int(count)
        self._evict()

    def _evict(self) -> None:
        """Drop retained references and offered runs that fell out of the window."""
        horizon = self._clock - self.window
        if horizon <= 0:
            return
        if self._positions.size and int(self._positions[0]) < horizon:
            keep = int(np.searchsorted(self._positions, horizon, side="left"))
            self._items = self._items[keep:]
            self._positions = self._positions[keep:]
        while self._segments and self._segments[0][0] + self._segments[0][1] <= horizon:
            self._segments.pop(0)
        if self._segments and self._segments[0][0] < horizon:
            start, length = self._segments[0]
            self._segments[0] = [horizon, length - (horizon - start)]

    def _offered_mass(self) -> tuple[int, float]:
        """Count and decayed weight of offered references inside the window."""
        if not self._segments:
            return 0, 0.0
        bounds = np.asarray(self._segments, dtype=np.float64)
        starts, lengths = bounds[:, 0], bounds[:, 1]
        offered = int(lengths.sum())
        if self.decay == 0.0:
            return offered, float(offered)
        newest = self._clock - 1
        # Positions start .. start+length-1 carry ages newest-p; geometric
        # series per segment summed in closed form, all exponents <= 0 (no
        # overflow).  expm1 keeps the ratio finite as decay -> 0, where the
        # naive (1 - e^-d L) / (1 - e^-d) form degenerates to 0/0 (NaN).
        denominator = -np.expm1(-self.decay)
        youngest_ages = newest - (starts + lengths - 1.0)
        terms = np.exp(-self.decay * youngest_ages) * -np.expm1(-self.decay * lengths) / denominator
        return offered, float(terms.sum())

    def snapshot(self) -> WindowSnapshot:
        """Freeze the current window state for (possibly remote) curve extraction."""
        offered, offered_weight = self._offered_mass()
        return WindowSnapshot(
            items=self._items.copy(),
            positions=self._positions.copy(),
            clock=self._clock,
            window=self.window,
            decay=self.decay,
            effective_rate=self.effective_rate,
            offered=offered,
            offered_weight=offered_weight,
        )

    def curve(self, *, max_cache_size: int | None = None) -> MissRatioCurve:
        """Miss-ratio curve of the current window (see :func:`curve_of_snapshot`)."""
        return curve_of_snapshot(self.snapshot(), max_cache_size=max_cache_size)


def _window_weights(snapshot: WindowSnapshot) -> tuple[np.ndarray, float]:
    """Per-sampled-reference decay weights and the expected sampled weight mass.

    The expected mass is the decayed weight of all *offered* window positions
    scaled by the sampling rate — the denominator of the SHARDS-adj
    correction.  Offered (not elapsed) positions matter: on a shared
    timeline a sketch only sees its own tenant's share of the window.
    """
    if snapshot.decay == 0.0:
        weights = np.ones(snapshot.positions.size, dtype=np.float64)
    else:
        newest = snapshot.clock - 1
        weights = np.exp(-snapshot.decay * (newest - snapshot.positions.astype(np.float64)))
    return weights, snapshot.offered_weight * snapshot.effective_rate


def _snapshot_histogram(snapshot: WindowSnapshot) -> tuple[np.ndarray, float]:
    """Rescaled, decay-weighted, SHARDS-adj-corrected histogram of one snapshot.

    Stack distances are measured on the sampled window buffer (distinct
    *sampled* items), rescaled by ``1 / R`` to full-trace cache sizes, and
    accumulated into a decay-weighted histogram; the SHARDS-adj correction
    charges the gap between the expected and actual sampled weight mass to
    the smallest cache size, exactly as in
    :func:`repro.profiling.shards.shards_mrc`.  Returns the histogram and
    the expected-mass denominator.  The single source of truth for both
    :func:`curve_of_snapshot` and :func:`pooled_curve`.
    """
    distances = stack_distances_vectorized(snapshot.items)
    weights, expected = _window_weights(snapshot)
    finite = distances != COLD
    scaled = np.ceil(distances[finite].astype(np.float64) / snapshot.effective_rate).astype(np.int64)
    length = int(scaled.max()) if scaled.size else 1
    histogram = np.zeros(length, dtype=np.float64)
    if scaled.size:
        np.add.at(histogram, scaled - 1, weights[finite])
    histogram[0] += expected - float(weights.sum())
    return histogram, expected


def curve_of_snapshot(snapshot: WindowSnapshot, *, max_cache_size: int | None = None) -> MissRatioCurve:
    """Miss-ratio curve of one :class:`WindowSnapshot`.

    See :func:`_snapshot_histogram` for the estimator; at ``rate == 1.0`` and
    ``decay == 0`` the result is the exact MRC of the window.
    """
    if snapshot.sampled == 0:
        raise ValueError("the sampled window is empty; grow the window or the sampling rate")
    histogram, expected = _snapshot_histogram(snapshot)
    return histogram_to_mrc(histogram, expected, snapshot.offered, max_cache_size=max_cache_size)


def pooled_curve(
    sketches: Sequence[WindowedShardsSketch | WindowSnapshot],
    *,
    max_cache_size: int | None = None,
) -> MissRatioCurve:
    """Merge same-stream sketches with independent hash seeds into one curve.

    Each sketch contributes its decay-weighted scaled histogram and expected
    weight mass; pooling sums both, which is the windowed analogue of the
    ``n_seeds`` pooling in :func:`~repro.profiling.shards.shards_mrc` — the
    per-seed data structures stay small while head-item variance drops.
    The sketches must observe the same stream (equal clocks).
    """
    if not sketches:
        raise ValueError("need at least one sketch to pool")
    snapshots = [s.snapshot() if isinstance(s, WindowedShardsSketch) else s for s in sketches]
    if len({snap.clock for snap in snapshots}) != 1:
        raise ValueError("pooled sketches must have ingested the same stream (equal clocks)")
    histograms: list[np.ndarray] = []
    expected_total = 0.0
    for snap in snapshots:
        if snap.sampled == 0:
            continue
        histogram, expected = _snapshot_histogram(snap)
        histograms.append(histogram)
        expected_total += expected
    if not histograms:
        raise ValueError("every pooled sketch has an empty sampled window")
    length = max(h.size for h in histograms)
    pooled = np.zeros(length, dtype=np.float64)
    for h in histograms:
        pooled[: h.size] += h
    return histogram_to_mrc(pooled, expected_total, snapshots[0].offered, max_cache_size=max_cache_size)
