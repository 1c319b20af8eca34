"""The benchmark's workloads: seeded inputs, the timed call into ``repro.api``, the output checks.

Inputs are generated here with NumPy from the seed alone, not with the
program's own trace generators, so one seed gives the same inputs at every
commit and the program receives only the generated references.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import api
from repro.trace import Trace
from repro.trace.drift import DriftingWorkload
from repro.trace.tenancy import MultiTenantTrace, TenantSpec

from . import checks


@dataclass(frozen=True)
class Workload:
    """One named workload."""

    why: str
    #: ``(seed, workdir) -> inputs``.
    build: Callable[[int, Path], dict]
    #: ``(inputs, scratch directory) -> result``: the timed call.
    call: Callable[[dict, Path], object]
    #: ``(inputs, result)``: raises :class:`checks.OutputMismatch` on a wrong result.
    check: Callable[[dict, object], None]
    #: References one call processes.
    refs: Callable[[dict], int]
    #: The miss ratio the user receives.
    miss_ratio: Callable[[object], float]


def zipf_stream(rng: np.random.Generator, length: int, footprint: int, exponent: float) -> np.ndarray:
    """``length`` references to ``footprint`` items with Zipf(``exponent``) popularity."""
    weights = 1.0 / np.arange(1, footprint + 1, dtype=np.float64) ** exponent
    return rng.choice(footprint, size=length, p=weights / weights.sum()).astype(np.int64)


def compose_phased(streams, names, rng: np.random.Generator, name: str) -> DriftingWorkload:
    """Merge per-tenant, per-phase streams (``None`` = absent) into one phase-aligned workload.

    Within a phase the tenants interleave by seeded exponential arrival
    times; each tenant keeps one label offset across phases, so namespaces
    are disjoint.
    """
    offsets, base = [], 0
    for row in streams:
        offsets.append(base)
        base += max(int(stream.max()) for stream in row if stream is not None) + 1
    items, ids, boundaries = [], [], []
    position = 0
    for phase in range(len(streams[0])):
        boundaries.append(position)
        active = [(t, row[phase]) for t, row in enumerate(streams) if row[phase] is not None]
        arrivals = np.concatenate([np.cumsum(rng.exponential(1.0, size=stream.size)) for _, stream in active])
        order = np.argsort(arrivals, kind="stable")
        items.append(np.concatenate([stream + offsets[t] for t, stream in active])[order])
        ids.append(np.concatenate([np.full(stream.size, t, dtype=np.int64) for t, stream in active])[order])
        position += int(order.size)
    composed = MultiTenantTrace(
        trace=Trace(np.concatenate(items), name=name),
        names=tuple(names),
        rates=(1.0,) * len(names),
        offsets=tuple(offsets),
        tenant_ids=np.concatenate(ids),
    )
    return DriftingWorkload(composed=composed, boundaries=tuple(boundaries))


# --------------------------------------------------------------------------- #
# online-seesaw and online-many: api.online on a drifting multi-tenant trace
# --------------------------------------------------------------------------- #
SEESAW = dict(budget=1150, window=6000, epoch=2000, method="hull", rate=0.5)
MANY = dict(budget=1200, window=8000, epoch=2000, method="hull", rate=0.5)
#: Phases of the seesaw and references per tenant and phase.  Many short
#: phases rather than three long ones: each phase change is one draw of the
#: controller's reaction, so the adaptive miss ratio averages 23 draws.  Its
#: quartile spread over ten seeds is about 2%, against 5% with 12 phases of
#: twice the length and 30% with three.
SEESAW_PHASES = 24
SEESAW_LENGTH = 6_000
#: References per present tenant and phase of online-many.
MANY_LENGTH = 2_800
#: Working-set sizes of the 15 tenants present in each phase of online-many.
MANY_FOOTPRINTS = tuple(int(size) for size in np.linspace(20, 200, 15))


def build_seesaw(seed: int, workdir: Path) -> dict:
    """Two tenants whose 900- and 250-item working sets swap at every phase."""
    rng = np.random.default_rng(seed)
    large, small = 900, 250
    stride = 2 * (large + small)  # disjoint item ranges per phase
    streams = [
        [phase * stride + zipf_stream(rng, SEESAW_LENGTH, (large, small)[(phase + tenant) % 2], 0.6)
         for phase in range(SEESAW_PHASES)]
        for tenant in range(2)
    ]
    return {"workload": compose_phased(streams, ("alpha", "beta"), rng, "online-seesaw")}


def build_many(seed: int, workdir: Path) -> dict:
    """16 tenants over 4 phases with 20-200-item working sets; every fourth tenant sits one phase out.

    In each phase the seed deals one fixed set of 15 working-set sizes to
    the tenants present, so every phase of every seed asks for the same
    total capacity.
    """
    rng = np.random.default_rng(seed)
    streams: list[list[np.ndarray | None]] = [[None] * 4 for _ in range(16)]
    for phase in range(4):
        present = [t for t in range(16) if not (t % 4 == 3 and t // 4 == phase)]  # 3, 7, 11, 15 miss 0, 1, 2, 3
        for tenant, size in zip(present, rng.permutation(MANY_FOOTPRINTS)):
            streams[tenant][phase] = phase * 256 + zipf_stream(rng, MANY_LENGTH, int(size), 0.6)
    names = tuple(f"t{tenant:02d}" for tenant in range(16))
    return {"workload": compose_phased(streams, names, rng, "online-many")}


def call_seesaw(inputs: dict, scratch: Path):
    return api.online(inputs["workload"], name="online-seesaw", **SEESAW)


def call_many(inputs: dict, scratch: Path):
    return api.online(inputs["workload"], name="online-many", checkpoint_dir=scratch, checkpoint_every=1, **MANY)


def _check_online(knobs: dict) -> Callable[[dict, object], None]:
    def check(inputs: dict, result) -> None:
        composed = inputs["workload"].composed
        tenants = composed.num_tenants
        checks.check_online(result, composed.trace.accesses, composed.tenant_ids, tenants=tenants, budget=knobs["budget"], unit=1)

    return check


def _online_refs(inputs: dict) -> int:
    return len(inputs["workload"].composed.trace)


# --------------------------------------------------------------------------- #
# sweep-file: api.sweep over a text trace file, on the process pool
# --------------------------------------------------------------------------- #
SWEEP_POLICIES = ("lru", "fifo")
SWEEP_CAPACITIES = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
SWEEP_WORKERS = 2
SWEEP_LENGTH = 300_000


def build_sweep(seed: int, workdir: Path) -> dict:
    """A Zipf(0.8) trace over 32k items, written to a text trace file."""
    rng = np.random.default_rng(seed)
    trace = zipf_stream(rng, SWEEP_LENGTH, 32_768, 0.8)
    path = workdir / "sweep.trace"
    path.write_text("\n".join(map(str, trace.tolist())) + "\n", encoding="utf-8")
    return {"path": path, "trace": trace}


def call_sweep(inputs: dict, scratch: Path):
    return api.sweep(
        path=inputs["path"],
        name="sweep-file",
        policies=SWEEP_POLICIES,
        capacities=SWEEP_CAPACITIES,
        workers=SWEEP_WORKERS,
    )


def check_sweep(inputs: dict, result) -> None:
    checks.check_sweep(result, inputs["trace"], SWEEP_POLICIES, SWEEP_CAPACITIES)


# --------------------------------------------------------------------------- #
# partition-3tenant: api.partition with sampled (SHARDS) profiles
# --------------------------------------------------------------------------- #
PARTITION = dict(budget=16384, method="hull", mode="shards", rate=0.01)


def build_partition(seed: int, workdir: Path) -> dict:
    """A Zipf(0.8) tenant, a sawtooth re-traversal and a STREAM copy loop."""
    rng = np.random.default_rng(seed)
    zipf = zipf_stream(rng, 200_000, 16_384, 0.8)
    m = 25_000
    forward = np.arange(m, dtype=np.int64)
    copy_pass = np.stack([forward, m + forward], axis=1).ravel()  # a[i], c[i] for i in 0..m-1
    tenants = (
        TenantSpec(zipf, name="zipf"),
        TenantSpec(np.concatenate([forward, forward[::-1]]), name="sawtooth"),
        TenantSpec(np.tile(copy_pass, 2), name="stream-copy"),
    )
    return {"tenants": tenants, "seed": int(rng.integers(2**31))}


def call_partition(inputs: dict, scratch: Path):
    return api.partition(inputs["tenants"], seed=inputs["seed"], name="partition-3tenant", **PARTITION)


def check_partition(inputs: dict, result) -> None:
    streams = [spec.accesses for spec in inputs["tenants"]]
    checks.check_partition(result, streams, budget=PARTITION["budget"], unit=1)


WORKLOADS = {
    "online-seesaw": Workload(
        why="two tenants swap 900/250-item working sets; distance pass, re-profiling and hull allocator share the time",
        build=build_seesaw,
        call=call_seesaw,
        check=_check_online(SEESAW),
        refs=_online_refs,
        miss_ratio=lambda result: result.adaptive_miss_ratio,
    ),
    "online-many": Workload(
        why="16 small tenants with churn and per-epoch checkpoints; the allocator and per-tenant loops dominate",
        build=build_many,
        call=call_many,
        check=_check_online(MANY),
        refs=_online_refs,
        miss_ratio=lambda result: result.adaptive_miss_ratio,
    ),
    "sweep-file": Workload(
        why="LRU+FIFO sweep of a Zipf trace file on 2 workers; trace reads, sim kernels and the pool, no allocator",
        build=build_sweep,
        call=call_sweep,
        check=check_sweep,
        refs=lambda inputs: int(inputs["trace"].size),
        miss_ratio=lambda result: result["lru"].miss_ratios[-1],
    ),
    "partition-3tenant": Workload(
        why="SHARDS-profiled 3-tenant partition; validation is mostly the distance kernel, almost no allocator work",
        build=build_partition,
        call=call_partition,
        check=check_partition,
        refs=lambda inputs: sum(len(spec.accesses) for spec in inputs["tenants"]),
        miss_ratio=lambda result: result.simulated_miss_ratio,
    ),
}

