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
        every access).  Non-increasing by construction.
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
        if int(self.unit) < 1:
            raise ValueError(f"unit must be >= 1, got {self.unit}")
        if int(self.accesses) < 1:
            raise ValueError(f"accesses must be >= 1, got {self.accesses}")
        object.__setattr__(self, "misses", misses)

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
    budget, unit = int(budget), int(unit)
    max_units = budget // unit
    # Beyond the curve's last point the miss ratio is flat; keep one unit past
    # the last distinct capacity so that point is representable.
    useful_units = min(max_units, -(-curve.max_cache_size // unit))
    sizes = np.arange(1, useful_units + 1) * unit
    # Vectorised curve[c] gather (sizes beyond the curve clamp to its last
    # point) — this runs once per tenant per epoch in the online engine, so a
    # per-size Python loop would be a real hot spot.
    values = curve.as_array()
    ratios = values[np.minimum(sizes, values.size) - 1]
    ratios = np.minimum.accumulate(ratios)
    misses = np.concatenate([[float(curve.accesses)], ratios * curve.accesses])
    return DiscretizedMRC(misses=misses, unit=unit, accesses=int(curve.accesses))


def lower_convex_hull(misses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of a discretized miss curve.

    Returns the hull vertex indices (allocation units, starting at 0) and the
    hull miss values at those vertices.  Slopes between consecutive vertices
    are strictly increasing (becoming less steep), which is what makes
    steepest-first allocation on the hull optimal.  The chain runs in the
    native kernel library where a C compiler is available and in Python
    otherwise; both give the same vertices, bit for bit.

    Examples
    --------
    A cliff curve (no gain until the whole working set fits) hulls to a single
    straight segment:

    >>> import numpy as np
    >>> units, values = lower_convex_hull(np.array([8.0, 8.0, 8.0, 8.0, 1.0]))
    >>> units.tolist()
    [0, 4]
    >>> values.tolist()
    [8.0, 1.0]
    """
    values = np.asarray(misses, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("misses must be a non-empty 1-D array")
    native = native_kernels()
    vertices = _lower_hull_python(values) if native is None else native.lower_convex_hull(values)
    return vertices, values[vertices]


def _lower_hull_python(values: np.ndarray) -> np.ndarray:
    """Hull vertex indices of a non-empty 1-D ``float64`` array, by the monotone chain in Python.

    The path without a C compiler, and the reference the native kernel
    (``lower_hull`` in ``_olken.c``) is held bit-identical to.
    """
    # Monotone-chain over the points (j, values[j]): keep vertices while the
    # turn is convex (cross product <= 0 pops the middle point).  The chain
    # walks plain Python floats (one tolist() up front): hull extraction runs
    # on every controller consult in the online engine, and unboxing NumPy
    # scalars per comparison dominates the loop otherwise.
    points = values.tolist()
    hull: list[int] = []
    for j, value in enumerate(points):
        while len(hull) >= 2:
            i, k = hull[-2], hull[-1]
            # slope(i -> k) >= slope(k -> j) means k lies on or above the
            # chord i -> j and is not a lower-hull vertex.
            if (points[k] - points[i]) * (j - k) >= (value - points[k]) * (k - i):
                hull.pop()
            else:
                break
        hull.append(j)
    return np.asarray(hull, dtype=np.int64)
