"""Per-tenant columnar state: one stack-distance pass feeding every consumer.

Every multi-tenant experiment consumes a composed trace as two columns —
``items`` (access labels) and ``tenant_ids`` (owning tenant per event) — and
every one of them needs the same two facts per tenant: *its sub-stream* (the
items it touched, in order) and *its stack distances* over that sub-stream.
Distances are a property of the tenant stream alone — independent of any
capacity schedule — so one pass per tenant serves MRC extraction (static
whole-trace and per-phase-window profiles), the batch replay lanes, and any
future consumer simultaneously.

* :func:`tenant_positions` / :func:`split_by_tenant` — the one columnar
  split: one stable radix sort of the tenant ids, cut at ``bincount``
  offsets, so splitting costs one pass for any tenant count (per-tenant
  ``ids == t`` masks cost ``O(T·N)``).
* :class:`TenantDistancePasses` — the full per-tenant distance pass
  (distances plus previous-access positions), with
  :meth:`~TenantDistancePasses.whole_stream_curve` and
  :meth:`~TenantDistancePasses.window_curve` deriving exact discretized MRCs
  of the whole stream or of any event window for free.
* :class:`TenantDistanceStreams` — the streaming variant: chunked distances
  with ``O(footprint)`` carried state, for traces too large to hold.
* :class:`PrecomputedTenantDistances` — whole-stream distances sliced out
  chunk by chunk (the in-memory replay fast path).
* :func:`discretized_from_distances` — exact discretized MRC extraction from
  precomputed distances, bit-identical to a from-scratch pass over the same
  stream (asserted in the test suite).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cache.stack_distance import COLD, StackDistanceStream

__all__ = [
    "PrecomputedTenantDistances",
    "TenantDistancePasses",
    "TenantDistanceStreams",
    "check_tenant_ids",
    "discretized_from_distances",
    "idle_curve",
    "split_by_tenant",
    "tenant_positions",
]


def check_tenant_ids(tenant_ids: np.ndarray, num_tenants: int) -> None:
    """Reject tenant ids outside ``[0, num_tenants)``.

    Splitting with boolean masks would otherwise silently *drop* the events
    of an out-of-range tenant — wrong totals instead of an error, where a
    per-event simulator raises.
    """
    if tenant_ids.size and not 0 <= int(tenant_ids.min()) <= int(tenant_ids.max()) < num_tenants:
        raise ValueError(
            f"tenant ids must be within [0, {num_tenants}), got range "
            f"[{int(tenant_ids.min())}, {int(tenant_ids.max())}]"
        )


def tenant_positions(tenant_ids: np.ndarray, num_tenants: int) -> list[np.ndarray]:
    """Per-tenant event positions (sorted ascending) in a composed trace.

    The ids are cast to the smallest unsigned type that holds them, where
    numpy's stable sort is a radix sort; the sorted positions are then cut
    into per-tenant runs at the cumulative tenant counts.
    """
    tenant_ids = np.asarray(tenant_ids)
    num_tenants = int(num_tenants)
    check_tenant_ids(tenant_ids, num_tenants)
    small = tenant_ids.astype(np.min_scalar_type(num_tenants - 1))
    order = np.argsort(small, kind="stable")
    ends = np.cumsum(np.bincount(small, minlength=num_tenants)).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def split_by_tenant(items: np.ndarray, tenant_ids: np.ndarray, num_tenants: int) -> list[np.ndarray]:
    """Per-tenant sub-streams of a composed ``(items, tenant_ids)`` trace."""
    items = np.asarray(items)
    tenant_ids = np.asarray(tenant_ids)
    if items.shape != tenant_ids.shape:
        raise ValueError(f"items and tenant_ids must align, got {items.shape} vs {tenant_ids.shape}")
    return [items[positions] for positions in tenant_positions(tenant_ids, num_tenants)]


# --------------------------------------------------------------------------- #
# Exact discretized MRC extraction
# --------------------------------------------------------------------------- #
_IDLE_CURVE_ACCESSES = 1


def idle_curve(unit: int):
    """Zero-demand curve for a tenant with no traffic: never allocate to it."""
    from ..alloc.curves import DiscretizedMRC

    return DiscretizedMRC(misses=np.zeros(1, dtype=np.float64), unit=unit, accesses=_IDLE_CURVE_ACCESSES)


def discretized_from_distances(distances: np.ndarray, budget: int, unit: int):
    """Exact discretized MRC straight from precomputed stack distances.

    Bit-identical to :func:`~repro.cache.mrc.mrc_from_trace` plus
    :func:`~repro.alloc.curves.discretize_curve` on the stream the distances
    were measured over (same histogram, same cumulative hits, same float
    ops) — but free once the engine has done its one distance pass per
    tenant.  Cold accesses carry the
    :data:`~repro.cache.stack_distance.COLD` sentinel, which is beyond any
    budget and falls out of the histogram.
    """
    from ..alloc.curves import discretize_curve
    from ..cache.mrc import MissRatioCurve

    n = int(distances.size)
    if n == 0:
        return idle_curve(unit)
    within = distances[distances <= budget]
    hist = np.bincount(within - 1, minlength=budget)[:budget]
    ratios = 1.0 - np.cumsum(hist).astype(np.float64) / n
    curve = MissRatioCurve(ratios=ratios, accesses=n)
    return discretize_curve(curve, budget, unit=unit)


class TenantDistancePasses:
    """One full stack-distance pass per tenant, shared by every consumer.

    Built from a composed ``(items, tenant_ids)`` trace; holds, per tenant,
    the event positions in the composed trace, the stack distances over the
    tenant's sub-stream, and each access's previous-occurrence position
    (:data:`~repro.cache.stack_distance.COLD`-sentinel cold accesses have
    ``previous == -1``).  From those arrays, whole-stream and per-window
    exact profiles are array slices — no re-processing:

    * :meth:`whole_stream_curve` histograms the full distance array;
    * :meth:`window_curve` re-labels as cold every access whose previous
      occurrence predates the window (exactly what a from-scratch pass over
      the window's sub-trace would measure).
    """

    def __init__(self, items: np.ndarray, tenant_ids: np.ndarray, num_tenants: int):
        from ..cache.stack_distance import stack_distances_with_previous

        self.positions = tenant_positions(tenant_ids, num_tenants)
        items = np.asarray(items)
        passes = [stack_distances_with_previous(items[idx]) for idx in self.positions]
        self.distances = [distances for distances, _previous in passes]
        self.previous = [previous for _distances, previous in passes]

    @property
    def num_tenants(self) -> int:
        """Number of tenant streams."""
        return len(self.positions)

    def whole_stream_curve(self, tenant: int, budget: int, unit: int):
        """Exact discretized MRC of one tenant's whole stream."""
        return discretized_from_distances(self.distances[tenant], budget, unit)

    def window_curve(self, tenant: int, bounds: tuple[int, int], budget: int, unit: int):
        """Exact discretized MRC of one tenant inside a composed-trace window.

        ``bounds`` is a half-open ``(start, end)`` window over the *composed*
        trace; the tenant's accesses inside it are located with one
        ``searchsorted`` and an access whose previous occurrence predates
        the window is simply cold there.
        """
        lo, hi = (int(x) for x in np.searchsorted(self.positions[tenant], bounds))
        distances = self.distances[tenant]
        previous = self.previous[tenant]
        adjusted = np.where(previous[lo:hi] >= lo, distances[lo:hi], np.int64(COLD))
        return discretized_from_distances(adjusted, budget, unit)


# --------------------------------------------------------------------------- #
# Distance providers for the batch replay data plane
# --------------------------------------------------------------------------- #
class TenantDistanceStreams:
    """Per-tenant streaming stack distances over a composed multi-tenant trace.

    Each tenant's partition is isolated, so its distances are measured on its
    own sub-stream; this wrapper splits a composed ``(items, tenant_ids)``
    segment and feeds each tenant's share to a carried
    :class:`~repro.cache.stack_distance.StackDistanceStream`.  The resulting
    per-tenant distance arrays are what every lane of a replay shares — the
    expensive pass happens once per segment regardless of how many capacity
    schedules are measured on top of it.
    """

    def __init__(self, num_tenants: int):
        if int(num_tenants) < 1:
            raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
        self._streams = [StackDistanceStream() for _ in range(int(num_tenants))]

    @property
    def num_tenants(self) -> int:
        """Number of tenant streams."""
        return len(self._streams)

    def feed(self, items: np.ndarray, tenant_ids: np.ndarray) -> list[np.ndarray]:
        """Split one composed segment and return per-tenant distance arrays."""
        streams = split_by_tenant(items, tenant_ids, len(self._streams))
        return [stream.feed(tenant_items) for stream, tenant_items in zip(self._streams, streams)]

    def state_dict(self) -> dict:
        """Picklable snapshot of every tenant stream's carried state."""
        return {"streams": [stream.state_dict() for stream in self._streams]}

    def load_state_dict(self, state: dict) -> None:
        """Restore carried state captured by :meth:`state_dict`."""
        states = state["streams"]
        if len(states) != len(self._streams):
            raise ValueError(f"state holds {len(states)} tenant streams, this provider has {len(self._streams)}")
        for stream, stream_state in zip(self._streams, states):
            stream.load_state_dict(stream_state)


class PrecomputedTenantDistances:
    """Whole-stream per-tenant stack distances, sliced out chunk by chunk.

    The in-memory fast path of the replay data plane: when the composed
    trace is fully resident anyway, one vectorised distance pass per tenant
    up front beats re-running the (overhead-bound) chunked pass on every
    small epoch segment.  The provider wraps those already-computed
    per-tenant arrays (no extra pass): the replay engine amortises its one
    :class:`TenantDistancePasses` across the static and per-phase oracle
    profiles and then all three lanes.  ``feed`` has the same surface as
    :class:`TenantDistanceStreams` and yields bit-identical arrays — the
    streaming variant exists for traces too large to hold in memory.
    """

    def __init__(self, distances: Sequence[np.ndarray]):
        if not distances:
            raise ValueError("need at least one tenant distance array")
        self._distances = [np.asarray(d) for d in distances]
        self._cursors = [0] * len(self._distances)

    @property
    def num_tenants(self) -> int:
        """Number of tenant streams."""
        return len(self._distances)

    def feed(self, chunk_items: np.ndarray, chunk_ids: np.ndarray) -> list[np.ndarray]:
        """Per-tenant distance slices for the next chunk of the composed trace."""
        chunk_ids = np.asarray(chunk_ids)
        check_tenant_ids(chunk_ids, len(self._distances))
        counts = np.bincount(chunk_ids, minlength=len(self._distances)).tolist()
        out = []
        for tenant, (distances, count) in enumerate(zip(self._distances, counts)):
            cursor = self._cursors[tenant]
            if cursor + count > distances.size:
                raise ValueError(f"tenant {tenant} fed past the precomputed stream ({distances.size} references)")
            out.append(distances[cursor : cursor + count])
            self._cursors[tenant] = cursor + count
        return out

    def state_dict(self) -> dict:
        """Picklable snapshot: just the per-tenant cursors.

        The distance arrays themselves are a deterministic function of the
        trace, so checkpoints carry only the cursors and a resume recomputes
        the arrays before seeking back to them.
        """
        return {"cursors": [int(c) for c in self._cursors]}

    def load_state_dict(self, state: dict) -> None:
        """Restore cursors captured by :meth:`state_dict` (bounds-checked)."""
        cursors = [int(c) for c in state["cursors"]]
        if len(cursors) != len(self._distances):
            raise ValueError(f"state holds {len(cursors)} cursors, this provider has {len(self._distances)}")
        for tenant, (cursor, distances) in enumerate(zip(cursors, self._distances)):
            if not 0 <= cursor <= distances.size:
                raise ValueError(f"tenant {tenant} cursor {cursor} outside [0, {distances.size}]")
        self._cursors = cursors
