"""Discretized miss curves and Talus-style convex hulls for the allocators.

The allocators in :mod:`repro.alloc.allocators` do not work on
:class:`~repro.cache.mrc.MissRatioCurve` objects directly; they work on a
*discretized miss curve*: expected absolute miss counts at the capacities
``0, unit, 2·unit, …`` up to the smaller of the budget and the point where
the curve flattens.  Working in absolute misses (miss ratio × accesses)
makes curves of tenants with different access volumes directly comparable —
one unit of cache is worth giving to whichever tenant removes the most
misses with it.

Miss-ratio curves of real workloads are frequently non-convex (a cyclic
re-traversal is the extreme case: a cliff at its footprint and no gain
anywhere else), which breaks marginal-gain greedy allocation.  Talus-style
shaping fixes this by replacing each curve with its *lower convex hull*:
every point on the hull is achievable (Talus realises interior points by
splitting the tenant's partition between the two bracketing hull vertices in
the right ratio; here the allocator simply lands on hull vertices whenever it
can), and on convex curves steepest-slope-first allocation is exactly
optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache._native import native_kernels
from ..cache.mrc import MissRatioCurve

__all__ = ["DiscretizedMRC", "discretize_curve", "lower_convex_hull"]


@dataclass(frozen=True)
class DiscretizedMRC:
    """Expected absolute misses of one tenant at capacities ``0, unit, 2·unit, …``.

    Attributes
    ----------
    misses:
        ``misses[j]`` is the expected miss count at capacity ``j * unit``;
        ``misses[0]`` is the tenant's access count (an empty partition misses
        every access).  Finite, and non-increasing by construction.
    unit:
        Capacity granularity (cache blocks per allocation unit).
    accesses:
        The tenant's access count (the normaliser back to miss ratios).
    """

    misses: np.ndarray
    unit: int
    accesses: int

    def __post_init__(self):
        misses = np.asarray(self.misses, dtype=np.float64)
        if misses.ndim != 1 or misses.size == 0:
            raise ValueError("misses must be a non-empty 1-D array")
        _check_curves(misses, self.unit, [self.accesses])
        object.__setattr__(self, "misses", misses)

    @classmethod
    def _checked(cls, misses: np.ndarray, unit: int, accesses: int) -> "DiscretizedMRC":
        """A curve whose ``float64`` row already passed :func:`_check_curves` (as part of a matrix)."""
        curve = cls.__new__(cls)
        curve.__dict__.update(misses=misses, unit=unit, accesses=accesses)
        return curve

    @property
    def max_units(self) -> int:
        """Largest useful allocation in units (beyond it the curve is flat)."""
        return int(self.misses.size - 1)

    def _index(self, units: int) -> int:
        """Clamp an allocation to the curve, rejecting negative allocations.

        Without the explicit check a negative allocation would silently wrap
        to the *end* of the miss array (Python negative indexing) and read as
        a fully-provisioned tenant — the exact opposite of an empty one.
        """
        units = int(units)
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        return min(units, self.max_units)

    def miss_ratio_at(self, units: int) -> float:
        """Miss ratio at an allocation of ``units`` units (clamped to the curve).

        ``units == 0`` reads the empty-partition point (every access misses);
        allocations beyond :attr:`max_units` clamp to the curve's flat tail.
        """
        return float(self.misses[self._index(units)]) / self.accesses

    def misses_at(self, units: int) -> float:
        """Expected miss count at an allocation of ``units`` units (clamped)."""
        return float(self.misses[self._index(units)])


def _check_curves(misses: np.ndarray, unit: int, accesses) -> None:
    """:class:`DiscretizedMRC`'s checks on every row of ``misses`` at once, row ``i`` counting ``accesses[i]``."""
    if not np.isfinite(misses).all():
        raise ValueError("misses must be finite (no NaN or infinity)")
    if int(unit) < 1:
        raise ValueError(f"unit must be >= 1, got {unit}")
    fewest = min(accesses, default=1)
    if int(fewest) < 1:
        raise ValueError(f"accesses must be >= 1, got {fewest}")


def discretize_curve(curve: MissRatioCurve, budget: int, *, unit: int = 1) -> DiscretizedMRC:
    """Discretize a miss-ratio curve into expected misses per allocation unit.

    The result covers capacities ``0, unit, …, K·unit`` where ``K`` is the
    number of whole units inside ``min(budget, curve length + unit - 1)`` —
    allocating beyond the curve's last point cannot help, so the tail is
    dropped and the allocators treat the final value as flat.  Monotonicity
    is enforced with a running minimum so approximate (sampled) curves with
    small inversions cannot create phantom negative gains.

    Examples
    --------
    >>> from repro.cache.mrc import mrc_from_trace
    >>> curve = mrc_from_trace([0, 1, 0, 1, 0, 1])
    >>> d = discretize_curve(curve, budget=4)
    >>> [round(float(m), 1) for m in d.misses]
    [6.0, 6.0, 2.0]
    >>> d.miss_ratio_at(2)
    0.3333333333333333
    """
    if int(budget) < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if int(unit) < 1:
        raise ValueError(f"unit must be >= 1, got {unit}")
    (misses,) = _unit_misses(curve.ratios[np.newaxis], [curve.accesses], int(budget), int(unit))
    # A positive access count scales without reordering, so this is the running minimum of the ratios.
    np.minimum.accumulate(misses[1:], out=misses[1:])
    return DiscretizedMRC(misses=misses, unit=int(unit), accesses=int(curve.accesses))


def discretize_ratios(ratios: np.ndarray, accesses, budget: int, unit: int) -> list[DiscretizedMRC]:
    """:func:`discretize_curve` of every row of a ``(curves, sizes)`` matrix of *non-increasing* miss ratios.

    Row ``i`` counts ``accesses[i]``.  The rows need no running minimum, so the matrix is discretized in one
    multiply and checked once as a whole, with :class:`DiscretizedMRC`'s checks.
    """
    misses = _unit_misses(ratios, accesses, budget, unit)
    _check_curves(misses, unit, accesses)
    return [DiscretizedMRC._checked(row, unit, int(n)) for row, n in zip(misses, accesses)]


def _unit_misses(ratios: np.ndarray, accesses, budget: int, unit: int) -> np.ndarray:
    """Expected misses at capacities ``0, unit, 2·unit, …`` of each row of a ratio matrix (no running minimum)."""
    # Beyond the curves' last point the miss ratio is flat; keep one unit past
    # the last distinct capacity so that point is representable.
    useful_units = min(budget // unit, -(-ratios.shape[1] // unit))
    on_curve = min(useful_units, ratios.shape[1] // unit)  # units whose capacity lies on the curve
    counts = np.asarray(accesses, dtype=np.float64)[:, np.newaxis]
    misses = np.empty((ratios.shape[0], useful_units + 1), dtype=np.float64)
    misses[:, :1] = counts
    np.multiply(ratios[:, unit - 1 : on_curve * unit : unit], counts, out=misses[:, 1 : on_curve + 1])
    if useful_units > on_curve:  # the one unit past the last point reads it (as curve[c] does)
        np.multiply(ratios[:, -1:], counts, out=misses[:, -1:])
    return misses


def lower_convex_hull(misses: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hulls of discretized miss curves, concatenated in ``misses``.

    Row ``r`` runs from ``starts[r]`` to the next start (the last to the
    end); ``[0]`` makes ``misses`` one row.  Returns the hull vertex indices
    into ``misses``, row by row (for one row: allocation units, starting at
    0), and the miss values at those vertices.  Slopes between consecutive
    vertices of a row are strictly increasing (becoming less steep), which
    is what makes steepest-first allocation on the hull optimal.  The chains
    run in one native kernel call where a C compiler is available and in
    Python otherwise; both give the same vertices, bit for bit.

    Examples
    --------
    A cliff curve (no gain until the whole working set fits) hulls to a single
    straight segment:

    >>> import numpy as np
    >>> units, values = lower_convex_hull(np.array([8.0, 8.0, 8.0, 8.0, 1.0]), [0])
    >>> units.tolist()
    [0, 4]
    >>> values.tolist()
    [8.0, 1.0]
    >>> lower_convex_hull(np.array([8.0, 8.0, 1.0, 5.0, 4.0]), [0, 3])[0].tolist()
    [0, 2, 3, 4]
    """
    values = np.asarray(misses, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("misses must be a non-empty 1-D array")
    starts = np.asarray(starts, dtype=np.int64)
    bounds = [*starts.tolist(), values.size] if starts.ndim == 1 else []
    if bounds[:1] != [0] or any(stop <= start for start, stop in zip(bounds, bounds[1:])):
        raise ValueError("row starts must rise from 0 and stay below the number of points")
    native = native_kernels()
    vertices = _lower_hull_python(values, starts) if native is None else native.lower_convex_hull(values, starts)
    return vertices, values[vertices]


def _lower_hull_python(values: np.ndarray, starts) -> np.ndarray:
    """Hull vertex indices of each row of a non-empty 1-D ``float64`` array, by the monotone chain in Python.

    Rows as in :func:`lower_convex_hull`.  The path without a C compiler, and
    the reference the native kernel (``lower_hull`` in ``_olken.c``) is held
    bit-identical to.
    """
    # Monotone-chain over the points (j, values[j]): keep vertices while the
    # turn is convex (cross product <= 0 pops the middle point).  The chain
    # walks plain Python floats (one tolist() up front): unboxing NumPy
    # scalars per comparison would dominate the loop otherwise.
    points = values.tolist()
    bounds = [int(start) for start in starts]
    hull: list[int] = []
    for lo, hi in zip(bounds, [*bounds[1:], len(points)]):
        first = len(hull)
        for j in range(lo, hi):
            value = points[j]
            while len(hull) - first >= 2:
                i, k = hull[-2], hull[-1]
                # slope(i -> k) >= slope(k -> j) means k lies on or above the
                # chord i -> j and is not a lower-hull vertex.
                if (points[k] - points[i]) * (j - k) >= (value - points[k]) * (k - i):
                    hull.pop()
                else:
                    break
            hull.append(j)
    return np.asarray(hull, dtype=np.int64)
