"""Multi-tenant workload composition: seeded interleaving of per-tenant traces.

A shared cache serves several co-running workloads at once; to study it at the
trace level the per-tenant reference streams must be merged into one
interleaved trace.  :func:`compose_tenants` does this with a seeded
arrival-time model: every access of tenant ``t`` is assigned a virtual
arrival time drawn as the cumulative sum of exponential gaps with mean
``1 / rate_t``, and the merged trace is the stable sort of all accesses by
arrival time.  The model has three properties the partitioning optimizer in
:mod:`repro.alloc` relies on:

* **order preservation** — each tenant's accesses appear in their original
  order, so per-tenant locality is untouched by the merge;
* **rate control** — a tenant with twice the rate issues accesses twice as
  densely in the interleaved trace;
* **determinism** — the same ``seed`` always produces the same interleaving,
  so composed workloads are reproducible across runs and worker counts.

Tenant item namespaces are made disjoint by offsetting each tenant's labels
past the previous tenants' label ranges, so an interleaved trace never aliases
two tenants onto one cache block.  :meth:`MultiTenantTrace.tenant_trace`
returns the offset per-tenant stream, which is what the per-tenant profilers
consume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._util import ensure_rng
from .trace import Trace

__all__ = ["TenantSpec", "MultiTenantTrace", "compose_tenants"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a composed multi-tenant workload.

    Parameters
    ----------
    trace:
        The tenant's private reference stream (a :class:`~repro.trace.trace.Trace`
        or integer array), in the tenant's own item namespace.
    name:
        Display name used in reports and CSV rows.
    rate:
        Relative access rate; a tenant with rate ``2.0`` interleaves twice as
        densely as one with rate ``1.0``.  Must be positive.
    """

    trace: Trace | np.ndarray | Sequence[int]
    name: str = "tenant"
    rate: float = 1.0

    def __post_init__(self):
        if float(self.rate) <= 0:
            raise ValueError(f"tenant rate must be positive, got {self.rate}")

    @property
    def accesses(self) -> np.ndarray:
        """The tenant's reference stream as an integer array."""
        if isinstance(self.trace, Trace):
            return self.trace.accesses
        return np.asarray(self.trace)


@dataclass(frozen=True)
class MultiTenantTrace:
    """A composed multi-tenant trace plus the bookkeeping to take it apart again.

    Attributes
    ----------
    trace:
        The interleaved shared reference stream (disjoint item namespaces).
    names:
        Tenant display names, in spec order.
    rates:
        Tenant interleaving rates, in spec order.
    offsets:
        Label offset applied to each tenant (tenant ``t``'s original label
        ``x`` appears as ``x + offsets[t]`` in the composed trace).
    tenant_ids:
        Per-access tenant index of the composed trace (same length as
        ``trace``), so the interleaving can be decomposed exactly.
    """

    trace: Trace
    names: tuple[str, ...]
    rates: tuple[float, ...]
    offsets: tuple[int, ...]
    tenant_ids: np.ndarray

    @property
    def num_tenants(self) -> int:
        """Number of composed tenants."""
        return len(self.names)

    @cached_property
    def streams(self) -> tuple[np.ndarray, ...]:
        """Every tenant's accesses in composed (offset) labels, in order, split once (read-only)."""
        from ..engine.columnar import split_by_tenant

        streams = split_by_tenant(self.trace.accesses, self.tenant_ids, self.num_tenants)
        for stream in streams:
            stream.setflags(write=False)  # shared by every caller
        return tuple(streams)

    def tenant_trace(self, index: int) -> np.ndarray:
        """Tenant ``index``'s accesses in composed (offset) labels, in order.

        This is exactly the subsequence of the composed trace issued by the
        tenant, which is what an isolated cache partition serves.
        """
        return self.streams[index]

    def tenant_share(self, index: int) -> float:
        """Fraction of the composed trace's accesses issued by tenant ``index``."""
        return float(self.streams[index].size) / max(len(self.trace), 1)


def compose_tenants(
    tenants: Sequence[TenantSpec],
    *,
    seed: int | np.random.Generator | None = 0,
    name: str = "multi-tenant",
) -> MultiTenantTrace:
    """Interleave tenant reference streams into one shared-cache trace.

    Each access of tenant ``t`` receives a virtual arrival time drawn as the
    running sum of ``Exponential(1 / rate_t)`` gaps; the composed trace is all
    accesses sorted by arrival time (a seeded Poisson-like merge).  Tenant
    namespaces are offset to be disjoint.  The result is deterministic in
    ``seed`` and independent of how the per-tenant traces were produced.

    Tenant names are disambiguated on repeats (a duplicate of ``name`` gets
    ``name-<spec index>``), so downstream name-keyed reports — e.g.
    :meth:`repro.alloc.PartitionResult.allocation` — never collapse two
    tenants into one entry.

    Examples
    --------
    >>> from repro.trace import Trace
    >>> a = TenantSpec(Trace([0, 1, 0, 1]), name="a", rate=1.0)
    >>> b = TenantSpec(Trace([0, 0]), name="b", rate=1.0)
    >>> composed = compose_tenants([a, b], seed=0)
    >>> len(composed.trace)
    6
    >>> [int(x) for x in composed.tenant_trace(0)]  # tenant order is preserved
    [0, 1, 0, 1]
    >>> sorted(set(int(x) for x in composed.tenant_trace(1)))  # offset past tenant a
    [2]
    """
    if not tenants:
        raise ValueError("need at least one tenant to compose")
    arrays = [spec.accesses for spec in tenants]
    if any(arr.size == 0 for arr in arrays):
        raise ValueError("every tenant trace must be non-empty")
    # Raw-array tenants bypass Trace's label validation; a negative label
    # would silently break the disjoint-offset scheme.
    if any(int(arr.min()) < 0 for arr in arrays):
        raise ValueError("tenant item labels must be non-negative")

    names: list[str] = []
    for index, spec in enumerate(tenants):
        names.append(spec.name if spec.name not in names else f"{spec.name}-{index}")
    streams = [[np.asarray(arr, dtype=np.int64)] for arr in arrays]  # one phase
    return _interleave(streams, [spec.rate for spec in tenants], ensure_rng(seed), names=names, name=name)[0]


def _interleave(
    streams: Sequence[Sequence[np.ndarray | None]],
    rates: Sequence[float],
    rng: np.random.Generator,
    *,
    names: Sequence[str],
    name: str,
) -> tuple[MultiTenantTrace, tuple[int, ...]]:
    """The seeded merge behind :func:`compose_tenants` and :func:`~repro.trace.drift.compose_phases`.

    ``streams[t][p]`` is tenant ``t``'s int64 stream in phase ``p`` (``None``
    or empty where the tenant is absent), already validated; every tenant is
    active in some phase.  Each phase is merged on its own and the phases are
    concatenated.  Returns the composed trace and each phase's start position.
    """
    # One fixed namespace offset per tenant, wide enough for all its phases.
    offsets: list[int] = []
    base = 0
    for phases in streams:
        offsets.append(base)
        base += max(int(arr.max()) for arr in phases if arr is not None and arr.size) + 1

    items: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    boundaries: list[int] = []
    position = 0
    for p in range(len(streams[0])):
        active = [(t, phases[p]) for t, phases in enumerate(streams) if phases[p] is not None and phases[p].size]
        if not active:
            raise ValueError(f"phase {p} has no active tenant")
        # Virtual arrival times: per-tenant cumulative exponential gaps.
        # Tenants draw in spec order, so the interleave is a pure function of
        # the seed.
        times = [np.cumsum(rng.exponential(1.0 / float(rates[t]), size=arr.size)) for t, arr in active]
        order = np.argsort(np.concatenate(times), kind="stable")
        items.append(np.concatenate([arr + offsets[t] for t, arr in active])[order])
        ids.append(np.concatenate([np.full(arr.size, t, dtype=np.int64) for t, arr in active])[order])
        boundaries.append(position)
        position += order.size
    composed = MultiTenantTrace(
        trace=Trace(items[0] if len(items) == 1 else np.concatenate(items), name=name),
        names=tuple(names),
        rates=tuple(float(rate) for rate in rates),
        offsets=tuple(offsets),
        tenant_ids=ids[0] if len(ids) == 1 else np.concatenate(ids),
    )
    return composed, tuple(boundaries)
