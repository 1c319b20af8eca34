"""Phase-shifting workload generators for the online re-partitioning engine.

The static optimizer in :mod:`repro.alloc` assumes one stationary profile per
tenant; everything in :mod:`repro.online` exists because real traffic is only
*piecewise* stationary.  This module generates the piecewise part, with the
ground-truth phase boundaries attached so experiments can compare adaptive
behaviour against an oracle that re-partitions exactly at the shifts:

* :func:`zipf_alpha_drift` — popularity skew drift: each phase draws from the
  same item universe with a different Zipf exponent.
* :func:`working_set_migration` — the working set moves to a disjoint item
  range (optionally a different size) each phase; the classic cause of
  partition-rotting, since blocks holding the old set become dead weight.
* :func:`compose_phases` — interleave per-tenant, per-phase streams into one
  multi-tenant trace with aligned phases (a tenant may be absent from a
  phase: arrival/departure churn).
* :func:`three_phase_pair` — the canonical 3-phase two-tenant seesaw used by
  the ``online`` CLI subcommand, the ``online-adaptation`` experiment and the
  benchmarks: the tenants' working-set sizes swap each phase, so any static
  split starves one side in every phase.
* :func:`tenant_churn` — a tenant that arrives for the middle phase only.

All generators are deterministic in ``seed``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .._util import check_positive_int, ensure_rng
from .generators import zipfian_trace
from .tenancy import MultiTenantTrace, _interleave
from .trace import Trace

__all__ = [
    "PhasedTrace",
    "DriftingWorkload",
    "zipf_alpha_drift",
    "working_set_migration",
    "compose_phases",
    "three_phase_pair",
    "tenant_churn",
]


@dataclass(frozen=True)
class PhasedTrace:
    """A single-stream trace with known phase-start positions.

    ``boundaries[p]`` is the index of phase ``p``'s first access;
    ``boundaries[0]`` is always 0.
    """

    trace: Trace
    boundaries: tuple[int, ...]

    def __post_init__(self):
        if not self.boundaries or self.boundaries[0] != 0:
            raise ValueError("boundaries must start at 0")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if self.boundaries[-1] >= len(self.trace):
            raise ValueError("the final phase would be empty")

    @property
    def num_phases(self) -> int:
        """Number of phases."""
        return len(self.boundaries)

    def phase(self, index: int) -> np.ndarray:
        """The accesses of phase ``index``."""
        starts = self.boundaries + (len(self.trace),)
        return self.trace.accesses[starts[index] : starts[index + 1]]


@dataclass(frozen=True)
class DriftingWorkload:
    """A composed multi-tenant trace with known phase-start positions.

    ``boundaries`` index into the *composed* trace, so
    ``composed.trace.accesses[boundaries[p]:boundaries[p + 1]]`` is phase
    ``p`` for every tenant at once.
    """

    composed: MultiTenantTrace
    boundaries: tuple[int, ...]

    @property
    def num_phases(self) -> int:
        """Number of phases."""
        return len(self.boundaries)

    def phase_slice(self, index: int) -> tuple[int, int]:
        """Half-open ``(start, end)`` positions of phase ``index`` in the composed trace."""
        starts = self.boundaries + (len(self.composed.trace),)
        return int(starts[index]), int(starts[index + 1])

    def tenant_phase_trace(self, tenant: int, phase: int) -> np.ndarray:
        """Tenant ``tenant``'s accesses during phase ``phase`` (composed labels)."""
        start, end = self.phase_slice(phase)
        window = self.composed.trace.accesses[start:end]
        return window[self.composed.tenant_ids[start:end] == tenant]


def zipf_alpha_drift(
    length_per_phase: int,
    items: int,
    exponents: Sequence[float],
    *,
    seed: int = 0,
) -> PhasedTrace:
    """Zipf traffic whose popularity exponent changes at every phase boundary.

    Examples
    --------
    >>> phased = zipf_alpha_drift(100, 50, [0.2, 1.2], seed=3)
    >>> phased.num_phases, len(phased.trace), phased.boundaries
    (2, 200, (0, 100))
    """
    length_per_phase = check_positive_int(length_per_phase, "length_per_phase")
    check_positive_int(items, "items")
    if not exponents:
        raise ValueError("need at least one phase exponent")
    rng = ensure_rng(seed)
    parts = [zipfian_trace(length_per_phase, items, exponent=float(s), rng=rng).accesses for s in exponents]
    boundaries = tuple(p * length_per_phase for p in range(len(exponents)))
    name = "zipf-drift(" + ",".join(f"{float(s):g}" for s in exponents) + ")"
    return PhasedTrace(trace=Trace(np.concatenate(parts), name=name), boundaries=boundaries)


def working_set_migration(
    length_per_phase: int,
    working_sets: Sequence[tuple[int, int]],
    *,
    exponent: float = 0.6,
    seed: int = 0,
) -> PhasedTrace:
    """Traffic whose working set occupies a different item range each phase.

    ``working_sets`` lists one ``(first_item, footprint)`` pair per phase;
    within a phase, items are drawn Zipf-ranked from that range (hottest at
    ``first_item``).  Disjoint ranges model the hard case: nothing cached for
    one phase helps the next.

    Examples
    --------
    >>> phased = working_set_migration(80, [(0, 20), (100, 40)], seed=1)
    >>> int(phased.phase(0).max()) < 20, int(phased.phase(1).min()) >= 100
    (True, True)
    """
    length_per_phase = check_positive_int(length_per_phase, "length_per_phase")
    if not working_sets:
        raise ValueError("need at least one phase working set")
    rng = ensure_rng(seed)
    parts = []
    for first, footprint in working_sets:
        first = int(first)
        if first < 0:
            raise ValueError(f"working-set start must be non-negative, got {first}")
        footprint = check_positive_int(footprint, "footprint")
        parts.append(first + zipfian_trace(length_per_phase, footprint, exponent=exponent, rng=rng).accesses)
    boundaries = tuple(p * length_per_phase for p in range(len(working_sets)))
    name = "ws-migration(" + ",".join(f"{int(f)}+{int(w)}" for f, w in working_sets) + ")"
    return PhasedTrace(trace=Trace(np.concatenate(parts), name=name), boundaries=boundaries)


def compose_phases(
    phase_streams: Sequence[Sequence[np.ndarray | Sequence[int] | None]],
    *,
    names: Sequence[str],
    rates: Sequence[float] | None = None,
    seed: int = 0,
    name: str = "drifting",
) -> DriftingWorkload:
    """Interleave per-tenant, per-phase streams into one phase-aligned trace.

    ``phase_streams[t][p]`` holds tenant ``t``'s references during phase
    ``p`` in the tenant's own label space, or ``None``/empty when the tenant
    is inactive there (arrival/departure churn).  Unlike
    :func:`repro.trace.tenancy.compose_tenants` — which interleaves whole
    traces and therefore cannot keep independently generated phases aligned —
    this merges *within* each phase (seeded exponential arrival times, order
    preserving) and concatenates the phases, so every tenant crosses each
    boundary at the same composed position.  Tenant namespaces are offset to
    stay disjoint, with one fixed offset per tenant across all phases.
    """
    if not phase_streams:
        raise ValueError("need at least one tenant")
    num_phases = len(phase_streams[0])
    if num_phases == 0:
        raise ValueError("need at least one phase")
    if any(len(streams) != num_phases for streams in phase_streams):
        raise ValueError("every tenant must list one stream (or None) per phase")
    if len(names) != len(phase_streams):
        raise ValueError(f"got {len(names)} names for {len(phase_streams)} tenants")
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    if rates is None:
        rates = [1.0] * len(phase_streams)
    if len(rates) != len(phase_streams):
        raise ValueError(f"got {len(rates)} rates for {len(phase_streams)} tenants")
    if any(float(r) <= 0 for r in rates):
        raise ValueError("tenant rates must be positive")

    arrays: list[list[np.ndarray | None]] = []
    for streams in phase_streams:
        arrays.append([None if s is None else np.asarray(s, dtype=np.int64) for s in streams])
    for streams in arrays:
        for arr in streams:
            if arr is not None and arr.size and int(arr.min()) < 0:
                raise ValueError("tenant item labels must be non-negative")
    if any(all(arr is None or arr.size == 0 for arr in streams) for streams in arrays):
        raise ValueError("every tenant must be active in at least one phase")

    composed, boundaries = _interleave(arrays, rates, ensure_rng(seed), names=[str(n) for n in names], name=name)
    return DriftingWorkload(composed=composed, boundaries=boundaries)


def three_phase_pair(
    length_per_phase: int = 12_000,
    *,
    large: int = 900,
    small: int = 250,
    exponent: float = 0.6,
    seed: int = 7,
) -> DriftingWorkload:
    """The canonical 3-phase seesaw: two tenants whose working-set sizes swap.

    Tenant ``alpha`` needs a ``large`` working set in phases 0 and 2 and only
    ``small`` in phase 1; tenant ``beta`` is its mirror.  Each phase uses a
    disjoint item range (working-set migration), so a static whole-trace
    partition must starve one tenant in *every* phase while per-phase
    re-partitioning can serve both — the workload the acceptance benchmark
    measures the adaptive engine on.
    """
    length_per_phase = check_positive_int(length_per_phase, "length_per_phase")
    large = check_positive_int(large, "large")
    small = check_positive_int(small, "small")
    rng = ensure_rng(seed)
    stride = 2 * (large + small)
    alpha_sets = [(0 * stride, large), (1 * stride, small), (2 * stride, large)]
    beta_sets = [(0 * stride, small), (1 * stride, large), (2 * stride, small)]
    alpha = working_set_migration(length_per_phase, alpha_sets, exponent=exponent, seed=rng)
    beta = working_set_migration(length_per_phase, beta_sets, exponent=exponent, seed=rng)
    return compose_phases(
        [[alpha.phase(p) for p in range(3)], [beta.phase(p) for p in range(3)]],
        names=("alpha", "beta"),
        seed=rng,
        name=f"three-phase-pair(large={large}, small={small})",
    )


def tenant_churn(
    length_per_phase: int = 8_000,
    *,
    resident_items: int = 600,
    visitor_items: int = 600,
    exponent: float = 0.6,
    seed: int = 11,
) -> DriftingWorkload:
    """Arrival/departure churn: a visitor tenant active only in the middle phase.

    Tenant ``resident`` runs for all three phases over a stable working set;
    tenant ``visitor`` arrives at phase 1 and departs at phase 2.  An
    adaptive partitioner should hand the visitor capacity only while it is
    present and return it afterwards.
    """
    length_per_phase = check_positive_int(length_per_phase, "length_per_phase")
    rng = ensure_rng(seed)
    resident = []
    for _ in range(3):
        resident.append(zipfian_trace(length_per_phase, resident_items, exponent=exponent, rng=rng).accesses)
    visitor = zipfian_trace(length_per_phase, visitor_items, exponent=exponent, rng=rng).accesses
    return compose_phases(
        [resident, [None, visitor, None]],
        names=("resident", "visitor"),
        seed=rng,
        name="tenant-churn",
    )
