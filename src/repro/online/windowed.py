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
  the constructor arguments.

A replay knows its trace up front: :class:`TenantWindows` slices every epoch's
windows out of one sampled distance pass per tenant, with bit-identical curves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..cache.mrc import MissRatioCurve
from ..cache.stack_distance import COLD, stack_distances_vectorized, stack_distances_with_previous
from ..profiling.shards import HASH_SPACE, histogram_ratios, histogram_to_mrc, rate_threshold, sampled_positions

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
    mutation: a snapshot can be pickled and its curve extracted elsewhere.
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
    >>> [round(r, 2) for r in sketch.curve().ratios.tolist()]  # window is [2, 1, 2, 1]
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

        Advancing each tenant's sketch past the *other* tenants' events ages
        its window in shared (composed-trace) time, so a quiet tenant drains out.
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
        return offered, _decayed_mass(starts, lengths, self._clock - 1, self.decay)

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


def _decayed_mass(starts: np.ndarray, lengths: np.ndarray, newest: int, decay: float) -> float:
    """Decayed weight of the offered runs ``starts[i] .. starts[i]+lengths[i]-1``: geometric series, expm1-stable."""
    denominator = -np.expm1(-decay)
    youngest_ages = newest - (starts + lengths - 1.0)
    terms = np.exp(-decay * youngest_ages) * -np.expm1(-decay * lengths) / denominator
    return float(terms.sum())


def _decay_weights(positions: np.ndarray, newest: int, decay: float) -> np.ndarray:
    """Weight ``exp(-decay * age)`` of the samples at timeline ``positions``."""
    return np.exp(-decay * (newest - positions.astype(np.float64)))


def _window_histograms(rows, distances, weights, totals, expected, rate: float, count: int, length: int = 0):
    """Decay-weighted, SHARDS-adj-corrected histograms of sampled windows, one row each (``length`` columns).

    Each reused sample adds its weight at its distance rescaled by ``1 / rate``; the gap between
    a row's expected and actual sampled weight goes to the smallest size, as in the whole-trace SHARDS-adj.
    """
    scaled = np.ceil(distances.astype(np.float64) / rate).astype(np.int64)
    length = length or int(scaled.max(initial=1))
    kept = scaled <= length
    flat = rows[kept] * length + scaled[kept] - 1
    histograms = np.bincount(flat, weights[kept], count * length).astype(np.float64, copy=False).reshape(count, length)
    histograms[:, 0] += expected - totals
    return histograms


def _snapshot_histogram(snapshot: WindowSnapshot) -> tuple[np.ndarray, float]:
    """Histogram and expected sampled mass (of the *offered* window positions) of one snapshot."""
    distances = stack_distances_vectorized(snapshot.items)
    weights = _decay_weights(snapshot.positions, snapshot.clock - 1, snapshot.decay)  # exactly 1 without decay
    expected = snapshot.offered_weight * snapshot.effective_rate
    finite = distances != COLD
    rows, rate = np.zeros(int(finite.sum()), dtype=np.int64), snapshot.effective_rate
    histogram = _window_histograms(rows, distances[finite], weights[finite], float(weights.sum()), expected, rate, 1)
    return histogram[0], expected


def _has_mass(snapshot: WindowSnapshot) -> bool:
    """Whether the window holds samples and an expected mass that did not decay (underflow) to 0."""
    return snapshot.sampled > 0 and snapshot.offered_weight * snapshot.effective_rate > 0


def curve_of_snapshot(snapshot: WindowSnapshot, *, max_cache_size: int | None = None) -> MissRatioCurve:
    """Miss-ratio curve of one :class:`WindowSnapshot`.

    See :func:`_snapshot_histogram` for the estimator; at ``rate == 1.0`` and
    ``decay == 0`` the result is the exact MRC of the window.  A window whose
    decayed mass underflowed to 0 has no curve, like an empty one.
    """
    if not _has_mass(snapshot):
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
    parts = [_snapshot_histogram(snap) for snap in snapshots if _has_mass(snap)]
    if not parts:
        raise ValueError("every pooled sketch has an empty sampled window")
    pooled = np.zeros(max(histogram.size for histogram, _ in parts), dtype=np.float64)
    for histogram, _ in parts:
        pooled[: histogram.size] += histogram
    mass = sum(expected for _, expected in parts)
    return histogram_to_mrc(pooled, mass, snapshots[0].offered, max_cache_size=max_cache_size)


class TenantWindows:
    """Every tenant's sampled window at every epoch end of a replay, from one sampled pass per tenant.

    In a stop chunk ``[s, e)`` a tenant's ``k``-th event sits at window position ``s + k``, so its window at epoch
    end ``E`` is the slice of its sampled stream at positions ``>= E - window``: a sample whose previous access fell
    out of it is cold, any other keeps its whole-stream distance.  Bit-identical to one sketch per tenant fed the
    ``stops``' chunks of ``items`` (``positions``: each tenant's events in them).  ``retained[E]``: samples held.
    """

    def __init__(self, items, positions, stops, epoch_ends, window: int, decay: float, rate: float, seed: int):
        self.window, self.decay, self.effective_rate = int(window), float(decay), rate_threshold(rate) / HASH_SPACE
        self.num_tenants = len(positions)
        bounds = np.asarray([0, *stops], dtype=np.int64)
        # before[k, t]: tenant t's events ahead of chunk k, which starts at bounds[k].
        before = np.stack([np.searchsorted(tenant, bounds) for tenant in positions], axis=1)
        ends = np.asarray(sorted(epoch_ends), dtype=np.int64)
        self._rows = {end: row for row, end in enumerate(ends.tolist())}
        self._columns, spans = [], []  # per tenant: distances, previous-access indices, positions if decayed
        for t, tenant in enumerate(positions):
            events = items[tenant]
            timeline = sampled_positions(events, [rate_threshold(rate)], [seed])[0]
            events = events[timeline]
            timeline += np.repeat(bounds[:-1] - before[:-1, t], np.diff(np.searchsorted(tenant[timeline], bounds)))
            spans.append(np.searchsorted(timeline, np.stack([ends - self.window, ends])))
            timeline = timeline if self.decay else None
            self._columns.append((*stack_distances_with_previous(events), timeline))
        self._lo, self._hi = np.stack(spans, axis=-1)
        self.retained = dict(zip(ends.tolist(), (self._hi - self._lo).sum(axis=1).tolist()))
        # Offered runs: a tenant's c events of chunk k at bounds[k] .. bounds[k] + c - 1, touching runs merged.
        counts = np.diff(before, axis=0).T
        tenant, chunk = np.nonzero(counts)
        starts, stops = bounds[chunk], bounds[chunk] + counts[tenant, chunk]
        opens = np.append(True, (tenant[1:] != tenant[:-1]) | (starts[1:] != stops[:-1]))
        self._runs = tenant[opens], starts[opens], stops[np.append(opens[1:], True)]

    def ratios(self, end: int, size: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Non-empty windows at ``end``: their tenants, offered references and miss ratios at sizes ``1 .. size``."""
        row = self._rows[end]
        tenants = np.flatnonzero(self._hi[row] > self._lo[row]).tolist()
        lo, counts = self._lo[row, tenants], (self._hi - self._lo)[row, tenants]
        owner, starts, stops = self._runs
        starts, stops = np.maximum(starts, end - self.window), np.minimum(stops, end)  # clipped to the window
        row_of = np.full(self.num_tenants, -1)
        row_of[tenants] = np.arange(len(tenants))
        owner = row_of[owner]
        live = (stops > starts) & (owner >= 0)
        owner, starts, lengths = owner[live], starts[live], (stops - starts)[live]
        offered = np.bincount(owner, lengths, len(tenants)).astype(np.int64)
        spans = [(self._columns[t], a, a + c) for t, a, c in zip(tenants, lo.tolist(), counts.tolist())]
        if not spans:
            return tenants, offered, np.empty((0, size))
        finite = np.concatenate([previous[a:b] for (_, previous, _), a, b in spans]) >= np.repeat(lo, counts)
        distances = np.concatenate([distances[a:b] for (distances, _, _), a, b in spans])[finite]
        weights, totals, mass = np.ones(distances.size), counts.astype(np.float64), offered.astype(np.float64)
        if self.decay:
            every = [_decay_weights(timeline[a:b], end - 1, self.decay) for (_, _, timeline), a, b in spans]
            weights = np.concatenate(every)[finite]
            totals = np.array([float(w.sum()) for w in every])
            runs = [(starts[owner == i], lengths[owner == i]) for i in range(len(tenants))]
            mass = np.array([_decayed_mass(*run, end - 1, self.decay) for run in runs])
        expected, rate = mass * self.effective_rate, self.effective_rate
        rows = np.repeat(np.arange(len(tenants)), counts)[finite]
        histograms = _window_histograms(rows, distances, weights, totals, expected, rate, len(tenants), size)
        keep = expected > 0  # a window whose decayed mass underflowed to 0 is empty too
        tenants = np.compress(keep, tenants).tolist()
        offered, histograms, expected = offered[keep], histograms[keep], expected[keep]
        return tenants, offered, histogram_ratios(histograms, expected[:, np.newaxis], size)
