"""Streaming replay: static vs. adaptive vs. oracle-per-phase partitioning.

:func:`run_replay` is the top of the online stack.  It feeds a drifting
multi-tenant trace (:class:`repro.trace.drift.DriftingWorkload`) through
three partitioned LRU lanes at once:

``static``
    The whole-trace optimum: per-tenant *exact* MRCs of the full trace,
    allocated once up front (what the offline :mod:`repro.alloc` pipeline
    would deploy) and never changed.
``adaptive``
    The online engine: per-tenant :class:`~repro.online.windowed.WindowedShardsSketch`
    profiles refreshed every ``epoch`` events, per-tenant
    :class:`~repro.online.phases.PhaseChangeDetector` flags, and a
    :class:`~repro.online.controller.ReallocationController` that re-runs the
    allocator and applies the proposal when the predicted gain beats the
    move-cost penalty.  Resizes take effect immediately: a shrunk partition
    evicts its least-recent blocks and a grown one warms up through ordinary
    misses, so adaptation pays its real warm-up cost in the measured series.
``oracle``
    The upper bound: exact per-phase MRCs allocated at the *true* phase
    boundaries (which only the generator knows).

All three run in the same event loop, so their per-epoch miss-ratio series
are directly comparable.  Every quantity is a pure function of the workload
and the job, so results are bit-identical for every worker count (asserted
in ``tests/online/test_replay.py``); under the ``reference`` engine
``workers`` fans the up-front exact profile extractions (whole-trace and
per-phase) across the engine's process pool, while the default ``batch``
engine derives them from its own distance pass and never needs the pool.

The replay is built on the :mod:`repro.engine` substrate: the
static/adaptive/oracle lanes are a :class:`repro.engine.lanes.LaneSet`
(batch and per-event reference data planes, bit-identical), the per-tenant
profile extraction is one :class:`repro.engine.columnar.TenantDistancePasses`
distance pass per tenant, and the merged epoch/phase stop schedule comes
from :func:`repro.engine.segments.replay_stops`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..alloc.curves import DiscretizedMRC, discretize_curve
from ..cache._native import crc32
from ..engine.columnar import TenantDistancePasses, exact_discretized_curve, idle_curve, split_by_tenant
from ..engine.job import check_choice, check_fraction, check_non_negative, check_positive, check_unit
from ..engine.lanes import LANE_ENGINES, LaneSet, PartitionedLRU
from ..engine.runner import check_workers, pool_map
from ..engine.segments import phase_of_last_event, replay_stops
from ..obs import get_registry, span
from ..resilience.checkpoint import latest_step, load_checkpoint, write_checkpoint
from ..resilience.faults import fire as _fire_fault
from ..resilience.policy import RetryPolicy
from ..trace.drift import DriftingWorkload
from .controller import ReallocationController
from .phases import PhaseChangeDetector
from .windowed import WindowedShardsSketch, WindowSnapshot, curve_of_snapshot

__all__ = [
    "OnlineJob",
    "EpochStats",
    "ReplayResult",
    "PartitionedLRU",
    "replay_fingerprint",
    "run_replay",
    "REPLAY_ENGINES",
]

#: The selectable replay data planes (see :func:`run_replay`).
REPLAY_ENGINES: tuple[str, ...] = LANE_ENGINES


@dataclass(frozen=True)
class OnlineJob:
    """Configuration of one online re-partitioning run.

    Parameters
    ----------
    budget:
        Shared cache capacity in blocks.
    window:
        Windowed-profiler span in *composed-trace* events; the replay engine
        keeps every tenant's sketch on the shared timeline, so a tenant's
        window covers roughly ``window × its access share`` own references.
    epoch:
        Re-profiling period in composed-trace events; profiles are refreshed
        and the controller consulted at every multiple of ``epoch``.
    method:
        Allocator (``greedy`` | ``dp`` | ``hull``), shared by all three
        systems.
    decay, rate, profile_seed:
        Windowed-sketch knobs (exponential decay rate, spatial sampling rate,
        hash seed); see :class:`~repro.online.windowed.WindowedShardsSketch`.
    move_cost:
        Warm-up misses charged per block that changes hands on a resize.
    horizon_epochs:
        How many epochs an applied re-partition is assumed to stay useful;
        scales the controller's predicted gain against the move cost.
    threshold, hysteresis:
        Phase-change detector knobs; a flagged change consults the
        controller immediately.  The default hysteresis of 1 reacts within
        one epoch — raise it when regimes are long and windows noisy enough
        that single-epoch excursions should not trigger a consult.
    realloc_epochs:
        Fixed re-allocation cadence: without a phase-change flag the
        controller is consulted only every ``realloc_epochs``-th epoch, so
        the detector knobs genuinely gate how fast churn can happen.
    unit:
        Allocation granularity in blocks.
    """

    budget: int
    window: int
    epoch: int
    method: str = "hull"
    decay: float = 0.0
    rate: float = 1.0
    move_cost: float = 1.0
    horizon_epochs: int = 8
    threshold: float = 0.03
    hysteresis: int = 1
    realloc_epochs: int = 4
    unit: int = 1
    profile_seed: int = 0
    name: str = "online"

    def __post_init__(self):
        for field_name in ("budget", "window", "epoch", "horizon_epochs", "realloc_epochs", "hysteresis"):
            check_positive(field_name, getattr(self, field_name))
        check_unit(self.unit, self.budget)
        # Fail fast on the knobs otherwise only checked deep inside the run,
        # after the (expensive) exact whole-trace profiling already happened.
        check_choice("method", self.method, ("greedy", "dp", "hull"))
        check_fraction("rate", self.rate)
        check_non_negative("decay", self.decay)
        check_non_negative("move_cost", self.move_cost)
        if float(self.threshold) <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch measurement of the three systems.

    ``phase`` is the workload phase containing the epoch's *last* event (an
    epoch that straddles a boundary is attributed to the regime it ends in).
    """

    index: int
    start: int
    end: int
    phase: int
    static_miss_ratio: float
    adaptive_miss_ratio: float
    oracle_miss_ratio: float
    distance: float
    phase_change: bool
    reallocated: bool
    moved_blocks: int
    adaptive_allocation: tuple[int, ...]

    def row(self) -> dict:
        """Flat dictionary for tables and CSV export."""
        return {
            "epoch": self.index,
            "start": self.start,
            "end": self.end,
            "phase": self.phase,
            "static": self.static_miss_ratio,
            "adaptive": self.adaptive_miss_ratio,
            "oracle": self.oracle_miss_ratio,
            "distance": self.distance,
            "phase_change": self.phase_change,
            "reallocated": self.reallocated,
            "moved_blocks": self.moved_blocks,
            "allocation": "/".join(str(c) for c in self.adaptive_allocation),
        }


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one :func:`run_replay` call."""

    name: str
    accesses: int
    tenants: tuple[str, ...]
    budget: int
    epochs: tuple[EpochStats, ...]
    static_miss_ratio: float
    adaptive_miss_ratio: float
    oracle_miss_ratio: float
    static_allocation: tuple[int, ...]
    final_allocation: tuple[int, ...]
    reallocations: int
    phase_changes: int
    profiled_references: int
    #: The oracle's per-phase splits (applied at the true phase boundaries);
    #: exposed so benchmarks can re-drive the exact lane schedules.
    oracle_allocations: tuple[tuple[int, ...], ...] = ()
    #: Tenant-epochs whose windowed profile extraction failed; each one held
    #: the last-known-good allocation instead of consulting the controller
    #: (flagged per epoch in the ``online.epochs`` metrics series).  Kept out
    #: of :meth:`summary` so healthy-run outputs are unchanged.
    profile_failures: int = 0

    @property
    def win_vs_static(self) -> float:
        """Overall miss-ratio reduction of adaptive over static (positive = win)."""
        return self.static_miss_ratio - self.adaptive_miss_ratio

    @property
    def regret_vs_oracle(self) -> float:
        """Overall miss-ratio gap between adaptive and the per-phase oracle."""
        return self.adaptive_miss_ratio - self.oracle_miss_ratio

    def rows(self) -> list[dict]:
        """Per-epoch rows for tables and CSV export."""
        return [epoch.row() for epoch in self.epochs]

    def summary(self) -> dict:
        """One aggregate row (the adaptation scoreboard)."""
        return {
            "job": self.name,
            "accesses": self.accesses,
            "budget": self.budget,
            "static": self.static_miss_ratio,
            "adaptive": self.adaptive_miss_ratio,
            "oracle": self.oracle_miss_ratio,
            "win_vs_static": self.win_vs_static,
            "regret_vs_oracle": self.regret_vs_oracle,
            "reallocations": self.reallocations,
            "phase_changes": self.phase_changes,
            "profiled_references": self.profiled_references,
        }


def _exact_discretized(task: tuple[np.ndarray, int, int]) -> DiscretizedMRC:
    """Pool worker: exact whole-stream MRC, discretized to allocation units."""
    stream, budget, unit = task
    return exact_discretized_curve(stream, budget, unit)


def _windowed_profile(task: tuple[WindowSnapshot, int, int]):
    """Windowed-sketch curve (for the detector) plus its discretization.

    Returns ``(curve, discretized)``; ``curve`` is ``None`` for a tenant whose
    sampled window is empty (no traffic), which maps to the idle zero-demand
    discretization so the allocator starves it.
    """
    snapshot, budget, unit = task
    if snapshot.sampled == 0:
        return None, idle_curve(unit)
    curve = curve_of_snapshot(snapshot, max_cache_size=budget)
    return curve, discretize_curve(curve, budget, unit=unit)


def _initial_split(num_tenants: int, budget: int, unit: int) -> tuple[int, ...]:
    """Deterministic cold-start split: equal units, remainder to low indices."""
    units = budget // unit
    base, extra = divmod(units, num_tenants)
    return tuple((base + (1 if t < extra else 0)) * unit for t in range(num_tenants))


def replay_fingerprint(workload: DriftingWorkload, job: OnlineJob, engine: str) -> str:
    """Stable identity of one logical replay (workload + job + engine).

    Pins a checkpoint store to exactly one run: the job knobs, the engine,
    the phase boundaries and a CRC of both trace columns all feed a SHA-256,
    so resuming with *any* different configuration is rejected up front
    instead of silently continuing somebody else's state.
    """
    composed = workload.composed
    items = np.ascontiguousarray(composed.trace.accesses, dtype=np.int64)
    ids = np.ascontiguousarray(composed.tenant_ids, dtype=np.int64)
    basis = {
        "engine": str(engine),
        "job": asdict(job),
        "accesses": int(items.size),
        "tenants": list(composed.names),
        "boundaries": [int(b) for b in workload.boundaries],
        "items_crc": crc32(items),
        "ids_crc": crc32(ids),
    }
    digest = hashlib.sha256(json.dumps(basis, sort_keys=True).encode("utf-8")).hexdigest()
    return f"online/1/{digest[:32]}"


def run_replay(
    workload: DriftingWorkload,
    job: OnlineJob,
    *,
    workers: int = 1,
    engine: str = "batch",
    policy: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> ReplayResult:
    """Replay a drifting workload under static, adaptive and oracle partitioning.

    ``engine`` selects the data plane driving the three simulators:
    ``"batch"`` (vectorised kernels, the default) or ``"reference"`` (the
    per-event ``OrderedDict`` loop).  The result is bit-identical either way.
    ``policy`` (a :class:`repro.resilience.RetryPolicy`) hardens the up-front
    profile fan-out under the ``reference`` engine: per-task timeouts, bounded
    retries and an inline fallback instead of a hang when a worker dies.

    With ``checkpoint_dir`` the replay snapshots its full dynamic state every
    ``checkpoint_every`` completed epochs (atomic, checksummed, fingerprinted
    — see :mod:`repro.resilience.checkpoint`); a killed run restarted with
    ``resume=True`` continues from the latest snapshot and produces rows and
    summaries **bit-identical** to the uninterrupted run (asserted in
    ``tests/resilience/``).  ``resume=True`` with an empty or absent store
    simply runs from the start, so the flag is safe to pass unconditionally.
    """
    workers = check_workers(workers)
    if engine not in REPLAY_ENGINES:
        # Fail before the expensive up-front profiling, like OnlineJob does.
        raise ValueError(f"engine must be one of {REPLAY_ENGINES}, got {engine!r}")
    check_positive("checkpoint_every", checkpoint_every)
    checkpoint_every = int(checkpoint_every)
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs checkpoint_dir= naming the checkpoint store")
    composed = workload.composed
    items = composed.trace.accesses
    ids = composed.tenant_ids
    n = int(items.size)
    num_tenants = composed.num_tenants
    budget, unit = int(job.budget), int(job.unit)

    controller = ReallocationController(budget=budget, method=job.method, unit=unit, move_cost=job.move_cost)

    # Whole-trace (static) and per-phase (oracle) exact profiles — both are
    # method-independent inputs computed up front.
    with span("online.profiles", engine=engine):
        if engine == "reference":
            # The seed path: every profile re-processes its stream from scratch,
            # fanned over the pool.
            static_tasks = [(composed.tenant_trace(t), budget, unit) for t in range(num_tenants)]
            phase_tasks = [
                (workload.tenant_phase_trace(t, p), budget, unit)
                for p in range(workload.num_phases)
                for t in range(num_tenants)
            ]
            static_curves = pool_map(_exact_discretized, static_tasks, workers=workers, policy=policy)
            phase_curves = pool_map(_exact_discretized, phase_tasks, workers=workers, policy=policy)
            distance_arrays = None
        else:
            # The batch data plane: ONE distance pass per tenant yields the static
            # profiles (histogram of the whole array), the per-phase oracle
            # profiles (an access whose previous access predates the phase is
            # simply cold there — no re-processing), and then drives every lane.
            passes = TenantDistancePasses(items, ids, num_tenants)
            distance_arrays = passes.distances
            static_curves = [passes.whole_stream_curve(t, budget, unit) for t in range(num_tenants)]
            phase_curves = [
                passes.window_curve(t, workload.phase_slice(p), budget, unit)
                for p in range(workload.num_phases)
                for t in range(num_tenants)
            ]
    static_allocation = controller.propose(static_curves)
    oracle_allocations = []
    for p in range(workload.num_phases):
        oracle_allocations.append(controller.propose(phase_curves[p * num_tenants : (p + 1) * num_tenants]))

    lanes = LaneSet(
        engine,
        distance_arrays,
        {
            "static": static_allocation,
            "adaptive": _initial_split(num_tenants, budget, unit),
            "oracle": oracle_allocations[0],
        },
    )
    sketches = [
        WindowedShardsSketch(window=job.window, decay=job.decay, rate=job.rate, seed=job.profile_seed)
        for _ in range(num_tenants)
    ]
    detectors = []
    for _ in range(num_tenants):
        detectors.append(PhaseChangeDetector(threshold=job.threshold, hysteresis=job.hysteresis))

    # Stops are every epoch end plus every phase boundary (oracle resizes
    # there); chunks between stops are processed with batched sketch updates.
    stops, epoch_ends = replay_stops(n, job.epoch, workload.boundaries)

    fingerprint = replay_fingerprint(workload, job, engine) if checkpoint_dir is not None else None

    epochs: list[EpochStats] = []
    profiled_references = 0
    reallocations = 0
    phase_changes = 0
    profile_failures = 0
    epoch_index = 0
    epoch_start = 0
    position = 0
    phase = 0
    settling = False
    # Last-known-good windowed profile per tenant: an epoch whose extraction
    # fails for a tenant holds this instead of crashing the replay.
    held_profiles: list[tuple | None] = [None] * num_tenants
    counters = {"static": [0, 0], "adaptive": [0, 0], "oracle": [0, 0]}  # [hits, misses] this epoch

    if resume and latest_step(checkpoint_dir) is not None:
        # Checkpoints snapshot at epoch ends only, right after the counters
        # reset — so the epoch counters are implicitly zero and everything
        # deterministic (distance arrays, static/oracle profiles, the stop
        # schedule) was already recomputed above, identically.
        state = load_checkpoint(checkpoint_dir, fingerprint=fingerprint).state
        position = int(state["position"])
        phase = int(state["phase"])
        settling = bool(state["settling"])
        epoch_index = int(state["epoch_index"])
        epoch_start = int(state["epoch_start"])
        epochs = list(state["epochs"])
        profiled_references = int(state["profiled_references"])
        reallocations = int(state["reallocations"])
        phase_changes = int(state["phase_changes"])
        profile_failures = int(state["profile_failures"])
        held_profiles = list(state["held_profiles"])
        lanes.load_state_dict(state["lanes"])
        for sketch, sketch_state in zip(sketches, state["sketches"]):
            sketch.load_state_dict(sketch_state)
        for detector, detector_state in zip(detectors, state["detectors"]):
            detector.load_state_dict(detector_state)
        controller.evaluations = int(state["controller"]["evaluations"])
        controller.applications = int(state["controller"]["applications"])

    def run_chunk(start: int, end: int) -> None:
        """Feed events ``start .. end`` to all three simulators and the sketches."""
        chunk_items = items[start:end]
        chunk_ids = ids[start:end]
        lanes.advance(chunk_items, chunk_ids, counters)
        for sketch, tenant_items in zip(sketches, split_by_tenant(chunk_items, chunk_ids, num_tenants)):
            sketch.update(tenant_items)
            # Keep every sketch on the composed timeline: advancing past the
            # other tenants' events makes windows age in shared time, so a
            # tenant that goes quiet drains out of its own window.
            sketch.advance(int(chunk_items.size - tenant_items.size))

    with span("online.replay", engine=engine):
        for stop in stops:
            if stop <= position:  # already replayed before the resume point
                continue
            run_chunk(position, stop)
            position = stop
            if phase + 1 < workload.num_phases and position >= workload.boundaries[phase + 1]:
                phase += 1
                lanes.resize("oracle", oracle_allocations[phase])
            if position not in epoch_ends:
                continue

            # Epoch end: refresh windowed profiles, consult detector + controller.
            # The per-epoch extractions are tiny (the sampled window buffers), so
            # they run inline — forking a pool every epoch would cost more than
            # the two stack-distance passes it parallelises; `workers` fans only
            # the heavy up-front exact profiling above.
            snapshots = [sketch.snapshot() for sketch in sketches]
            profiled_references += sum(snap.sampled for snap in snapshots)
            profiles = []
            failed: set[int] = set()
            for t, snap in enumerate(snapshots):
                try:
                    _fire_fault("online.profile", t)
                    profile = _windowed_profile((snap, budget, unit))
                except Exception:
                    # Degrade, never crash: hold the tenant's last-known-good
                    # profile (idle demand before any succeeded) and skip the
                    # controller below so the allocation stays put this epoch.
                    failed.add(t)
                    profile = held_profiles[t] if held_profiles[t] is not None else (None, idle_curve(unit))
                else:
                    held_profiles[t] = profile
                profiles.append(profile)
            profile_failures += len(failed)
            window_curves = [discretized for _curve, discretized in profiles]
            distance = 0.0
            changed = False
            for t, (curve, _discretized) in enumerate(profiles):
                if curve is None or t in failed:
                    continue
                observation = detectors[t].observe(curve)
                distance = max(distance, observation.distance)
                changed = changed or observation.changed
            if changed:
                phase_changes += 1
            # The controller is consulted on a phase-change flag, on the fixed
            # re-allocation cadence, or while *settling* — refining after a flag
            # or an applied move, when the window is still absorbing the new
            # regime.  Quiet unflagged epochs between cadence points never
            # re-partition, so threshold/hysteresis genuinely gate churn.
            applied = False
            moved_blocks = 0
            predicted_gain = 0.0
            move_penalty = 0.0
            if not failed and (changed or settling or epoch_index % job.realloc_epochs == 0):
                decision = controller.decide(
                    window_curves,
                    lanes.capacities("adaptive"),
                    horizon=job.epoch * job.horizon_epochs,
                )
                predicted_gain = decision.predicted_gain
                move_penalty = decision.penalty
                if decision.applied:
                    lanes.resize("adaptive", decision.allocation)
                    reallocations += 1
                    applied = True
                    moved_blocks = decision.moved_blocks
                settling = applied or changed

            total = position - epoch_start
            # Label the epoch with the phase of its *last event*: when an epoch
            # ends exactly on a boundary, `phase` has already advanced to the
            # next regime even though every recorded event belongs to the old one.
            last_event_phase = phase_of_last_event(workload.boundaries, position)
            epochs.append(
                EpochStats(
                    index=epoch_index,
                    start=epoch_start,
                    end=position,
                    phase=last_event_phase,
                    static_miss_ratio=counters["static"][1] / total,
                    adaptive_miss_ratio=counters["adaptive"][1] / total,
                    oracle_miss_ratio=counters["oracle"][1] / total,
                    distance=distance,
                    phase_change=changed,
                    reallocated=applied,
                    moved_blocks=moved_blocks,
                    adaptive_allocation=lanes.capacities("adaptive"),
                )
            )
            registry = get_registry()
            if registry.enabled:
                # The per-epoch time series mirrors EpochStats.row() plus the
                # controller's pricing of the epoch's decision and the sketch
                # sample volume — purely observational, never read back.
                registry.series("online.epochs").record(
                    epoch=epoch_index,
                    start=epoch_start,
                    end=position,
                    phase=last_event_phase,
                    static=counters["static"][1] / total,
                    adaptive=counters["adaptive"][1] / total,
                    oracle=counters["oracle"][1] / total,
                    distance=distance,
                    phase_change=changed,
                    reallocated=applied,
                    moved_blocks=moved_blocks,
                    allocation="/".join(str(c) for c in lanes.capacities("adaptive")),
                    sketch_sampled=sum(snap.sampled for snap in snapshots),
                    gain=predicted_gain,
                    penalty=move_penalty,
                    profile_failures=len(failed),
                )
                if changed:
                    registry.counter("online.phase_changes").inc()
                if applied:
                    registry.counter("online.reallocations").inc()
                    registry.counter("online.moved_blocks").add(moved_blocks)

            epoch_index += 1
            epoch_start = position
            for key in counters:
                counters[key] = [0, 0]

            if checkpoint_dir is not None and epoch_index % checkpoint_every == 0:
                with span("online.checkpoint", engine=engine):
                    state = {
                        "position": position,
                        "phase": phase,
                        "settling": settling,
                        "epoch_index": epoch_index,
                        "epoch_start": epoch_start,
                        "epochs": list(epochs),
                        "profiled_references": profiled_references,
                        "reallocations": reallocations,
                        "phase_changes": phase_changes,
                        "profile_failures": profile_failures,
                        "held_profiles": list(held_profiles),
                        "lanes": lanes.state_dict(),
                        "sketches": [sketch.state_dict() for sketch in sketches],
                        "detectors": [detector.state_dict() for detector in detectors],
                        "controller": {
                            "evaluations": controller.evaluations,
                            "applications": controller.applications,
                        },
                    }
                    write_checkpoint(checkpoint_dir, epoch_index, state, fingerprint=fingerprint, command="online")
                _fire_fault("online.checkpoint", epoch_index)

    registry = get_registry()
    registry.counter("online.events", engine=engine).add(n)
    registry.counter("online.profiled_references").add(profiled_references)
    registry.gauge("online.tenants").set(num_tenants)
    return ReplayResult(
        name=job.name,
        accesses=n,
        tenants=composed.names,
        budget=budget,
        epochs=tuple(epochs),
        static_miss_ratio=lanes.miss_ratio("static"),
        adaptive_miss_ratio=lanes.miss_ratio("adaptive"),
        oracle_miss_ratio=lanes.miss_ratio("oracle"),
        static_allocation=tuple(static_allocation),
        final_allocation=lanes.capacities("adaptive"),
        reallocations=reallocations,
        phase_changes=phase_changes,
        profiled_references=profiled_references,
        oracle_allocations=tuple(tuple(a) for a in oracle_allocations),
        profile_failures=profile_failures,
    )
