"""Output checks that hold for any correct implementation and any seed.

Each check re-derives part of a result from the generated inputs with a
small independent simulator (an ``OrderedDict`` LRU, a queue FIFO) or tests
an invariant of the result, and raises :class:`OutputMismatch` naming what
differs.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict, deque

import numpy as np

#: Tolerance on miss ratios re-derived from integer miss counts.
TOLERANCE = 1e-9


class OutputMismatch(Exception):
    """A program output that differs from what its inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def lru_hits(stream, capacity: int) -> int:
    """Hits of an LRU cache of ``capacity`` blocks over ``stream`` (no blocks, no hits)."""
    if capacity <= 0:
        return 0
    cache: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for item in np.asarray(stream).tolist():
        if item in cache:
            cache.move_to_end(item)
            hits += 1
            continue
        if len(cache) >= capacity:
            cache.popitem(last=False)
        cache[item] = None
    return hits


def fifo_hits(stream, capacity: int) -> int:
    """Hits of a FIFO cache of ``capacity`` blocks over ``stream``."""
    if capacity <= 0:
        return 0
    queue: deque[int] = deque()
    resident: set[int] = set()
    hits = 0
    for item in np.asarray(stream).tolist():
        if item in resident:
            hits += 1
            continue
        if len(queue) >= capacity:
            resident.discard(queue.popleft())
        queue.append(item)
        resident.add(item)
    return hits


REPLAY = {"lru": lru_hits, "fifo": fifo_hits}


def digest(result) -> str:
    """SHA-256 of a result's ``rows()`` and ``summary()``; timing fields are left out."""
    summary = {key: value for key, value in result.summary().items() if key != "seconds"}
    payload = json.dumps({"rows": result.rows(), "summary": summary}, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_allocation(allocation, *, tenants: int, budget: int, unit: int, what: str) -> None:
    """One split: an entry per tenant, non-negative, multiples of ``unit``, summing to at most ``budget``."""
    allocation = [int(c) for c in allocation]
    _require(len(allocation) == tenants, f"{what}: {len(allocation)} entries for {tenants} tenants")
    _require(all(c >= 0 for c in allocation), f"{what}: negative capacity in {allocation}")
    _require(all(c % unit == 0 for c in allocation), f"{what}: {allocation} is not in multiples of {unit}")
    _require(sum(allocation) <= budget, f"{what}: {allocation} sums to {sum(allocation)} > budget {budget}")


def _close(found: float, expected: float, what: str) -> None:
    _require(abs(found - expected) <= TOLERANCE, f"{what}: program gives {found!r}, inputs imply {expected!r}")


def adaptive_misses(items, ids, tenants: int, epochs, initial) -> list[int]:
    """Misses per epoch of per-tenant LRU partitions resized after each epoch.

    Epoch ``i`` replays with the split in force when it began (``initial``
    for the first) and then applies ``epochs[i].adaptive_allocation``; a
    shrunk partition evicts its least recently used blocks.
    """
    caches: list[OrderedDict[int, None]] = [OrderedDict() for _ in range(tenants)]
    capacities = [int(c) for c in initial]
    items, ids = np.asarray(items).tolist(), np.asarray(ids).tolist()
    misses = []
    for epoch in epochs:
        count = 0
        for item, tenant in zip(items[epoch.start : epoch.end], ids[epoch.start : epoch.end]):
            cache = caches[tenant]
            if item in cache:
                cache.move_to_end(item)
                continue
            count += 1
            if capacities[tenant] > 0:
                if len(cache) >= capacities[tenant]:
                    cache.popitem(last=False)
                cache[item] = None
        misses.append(count)
        capacities = [int(c) for c in epoch.adaptive_allocation]
        for cache, capacity in zip(caches, capacities):
            while len(cache) > capacity:
                cache.popitem(last=False)
    return misses


def check_online(result, items, ids, *, tenants: int, budget: int, unit: int) -> None:
    """An online replay: epochs tile the trace, every split is valid, both lanes replay independently.

    ``items`` and ``ids`` are the composed trace and its tenant labels.  The
    static lane never resizes, so its miss ratio is that of isolated LRU
    partitions at the static split.  The adaptive lane starts from the
    equal split and applies each epoch's reported allocation after it.
    """
    items, ids = np.asarray(items), np.asarray(ids)
    total = int(items.size)
    _require(result.accesses == total, f"accesses {result.accesses} != {total} generated references")
    epochs = result.epochs
    _require(len(epochs) > 0, "the replay reports no epochs")
    _require(epochs[0].start == 0, f"the first epoch starts at {epochs[0].start}, not 0")
    _require(epochs[-1].end == total, f"the last epoch ends at {epochs[-1].end}, not {total}")
    for before, after in zip(epochs, epochs[1:]):
        _require(before.end == after.start, f"epoch {before.index} ends at {before.end}, the next starts at {after.start}")
    _require(all(epoch.start < epoch.end for epoch in epochs), "an epoch is empty")

    def valid(allocation, what):
        check_allocation(allocation, tenants=tenants, budget=budget, unit=unit, what=what)

    valid(result.static_allocation, "static allocation")
    for phase, allocation in enumerate(result.oracle_allocations):
        valid(allocation, f"oracle allocation of phase {phase}")
    for epoch in epochs:
        valid(epoch.adaptive_allocation, f"adaptive allocation of epoch {epoch.index}")
    _require(
        tuple(result.final_allocation) == tuple(epochs[-1].adaptive_allocation),
        f"final allocation {result.final_allocation} differs from the last epoch's",
    )
    streams = [items[ids == tenant] for tenant in range(tenants)]
    misses = sum(len(stream) - lru_hits(stream, capacity) for stream, capacity in zip(streams, result.static_allocation))
    _close(result.static_miss_ratio, misses / total, f"static lane miss ratio at {result.static_allocation}")
    units, extra = divmod(budget // unit, tenants)
    initial = [(units + (1 if tenant < extra else 0)) * unit for tenant in range(tenants)]
    replayed = adaptive_misses(items, ids, tenants, epochs, initial)
    for epoch, expected in zip(epochs, replayed):
        found = epoch.adaptive_miss_ratio * (epoch.end - epoch.start)
        _close(found, expected, f"adaptive misses of epoch {epoch.index}")
    _close(result.adaptive_miss_ratio, sum(replayed) / total, "adaptive lane miss ratio")


def check_partition(result, streams, *, budget: int, unit: int) -> None:
    """A partition: the split is valid and its simulated miss ratios follow from it."""
    total = sum(len(stream) for stream in streams)
    _require(result.accesses == total, f"accesses {result.accesses} != {total} generated references")
    _require(len(result.tenants) == len(streams), f"{len(result.tenants)} tenants reported, {len(streams)} generated")
    allocation = [tenant.capacity for tenant in result.tenants]
    check_allocation(allocation, tenants=len(streams), budget=budget, unit=unit, what="partition allocation")
    misses = 0
    for tenant, stream in zip(result.tenants, streams):
        tenant_misses = len(stream) - lru_hits(stream, tenant.capacity)
        misses += tenant_misses
        _close(tenant.simulated_miss_ratio, tenant_misses / len(stream), f"{tenant.name} at {tenant.capacity} blocks")
    _close(result.simulated_miss_ratio, misses / total, f"simulated miss ratio of the split {allocation}")


def _policy(result, policy: str):
    try:
        return result[policy]
    except KeyError:
        raise OutputMismatch(f"the sweep has no {policy!r} results") from None


def check_sweep(result, trace, policies, capacities) -> None:
    """A sweep: grids as asked, LRU hits non-decreasing in capacity, every hit count equal to a replay."""
    trace = np.asarray(trace)
    footprint = int(np.unique(trace).size)
    _require(result.accesses == trace.size, f"accesses {result.accesses} != {trace.size} generated references")
    _require(result.footprint == footprint, f"footprint {result.footprint} != {footprint} distinct items")
    lru = _policy(result, "lru").hits
    _require(all(a <= b for a, b in zip(lru, lru[1:])), f"LRU hits {lru} decrease as capacity grows")
    for policy in policies:
        sweep = _policy(result, policy)
        _require(tuple(sweep.capacities) == tuple(capacities), f"{policy} swept {sweep.capacities}, not {capacities}")
        for capacity, hits in zip(sweep.capacities, sweep.hits):
            expected = REPLAY[policy](trace, capacity)
            _require(hits == expected, f"{policy} at {capacity} blocks: {hits} hits, a replay gives {expected}")
