"""Streaming replay: static vs. adaptive vs. oracle-per-phase partitioning.

:func:`run_replay` is the top of the online stack.  It feeds a drifting
multi-tenant trace (:class:`repro.trace.drift.DriftingWorkload`) through
three partitioned LRU lanes at once:

``static``
    The whole-trace optimum: per-tenant *exact* MRCs of the full trace,
    allocated once up front (what the offline :mod:`repro.alloc` pipeline
    would deploy) and never changed.
``adaptive``
    The online engine: per-tenant windowed SHARDS profiles
    (:mod:`repro.online.windowed`) refreshed every ``epoch`` events, the
    per-tenant flags of one :class:`~repro.online.phases.PhaseChangeDetector`,
    and a :class:`~repro.online.controller.ReallocationController` that re-runs the
    allocator and applies the proposal when the predicted gain beats the
    move-cost penalty.  Resizes take effect immediately: a shrunk partition
    evicts its least-recent blocks and a grown one warms up through ordinary
    misses, so adaptation pays its real warm-up cost in the measured series.
``oracle``
    The upper bound: exact per-phase MRCs allocated at the *true* phase
    boundaries (which only the generator knows).

All three run in the same event loop, so their per-epoch miss-ratio series
are directly comparable.  Every quantity is a pure function of the workload
and the job.

The replay is built on the :mod:`repro.engine` substrate: one
:class:`repro.engine.columnar.TenantDistancePasses` distance pass per tenant
yields the static and per-phase oracle profiles and then drives the
static/adaptive/oracle lanes of a :class:`repro.engine.lanes.LaneSet`, and
the merged epoch/phase stop schedule comes from
:func:`repro.engine.segments.replay_stops`.  The test suite re-drives every
lane event by event through a per-event ``OrderedDict`` simulator and every
epoch's profiles through per-tenant sketches, and holds both bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from ..alloc.curves import DiscretizedMRC, discretize_ratios
from ..engine.columnar import TenantDistancePasses, idle_curve
from ..engine.job import (
    ALLOC_METHODS, check_choice, check_fraction, check_non_negative, check_positive, check_unit, knob
)
from ..engine.lanes import LaneSet
from ..engine.segments import phase_of_last_event, replay_stops
from ..obs import get_registry, span
from ..resilience.checkpoint import fingerprint as run_fingerprint
from ..resilience.checkpoint import latest_step, load_checkpoint, write_checkpoint
from ..resilience.faults import fire as _fire_fault
from ..trace.drift import DriftingWorkload
from .controller import ReallocationController, ReallocationDecision
from .phases import PhaseChangeDetector
from .windowed import TenantWindows

__all__ = [
    "OnlineJob",
    "EpochStats",
    "ReplayResult",
    "replay_fingerprint",
    "run_replay",
]


@dataclass(frozen=True)
class OnlineJob:
    """Configuration of one online re-partitioning run.

    Parameters
    ----------
    budget:
        Shared cache capacity in blocks.
    window:
        Windowed-profiler span in *composed-trace* events; the replay engine
        keeps every tenant's window on the shared timeline, so a tenant's
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
    method: str = knob(
        "hull", "allocator: marginal-gain greedy, exact DP, or Talus-style convex hull", choices=ALLOC_METHODS
    )
    decay: float = knob(0.0, "exponential decay rate of the windowed profiles")
    rate: float = knob(1.0, "SHARDS sampling rate of the windowed profiles")
    move_cost: float = knob(1.0, "warm-up misses charged per moved block")
    horizon_epochs: int = knob(8, "epochs an applied re-partition is assumed to stay useful")
    threshold: float = knob(0.03, "phase-detector curve-distance threshold")
    hysteresis: int = knob(1, "consecutive off-reference windows before a flag")
    realloc_epochs: int = knob(
        4, "fixed re-allocation cadence; between these epochs only a phase-change flag consults the controller"
    )
    unit: int = knob(1, "allocation granularity in blocks")
    profile_seed: int = knob(0, "base hash seed for SHARDS sampling")
    name: str = "online"

    def __post_init__(self):
        for field_name in ("budget", "window", "epoch", "horizon_epochs", "realloc_epochs", "hysteresis"):
            check_positive(field_name, getattr(self, field_name))
        check_unit(self.unit, self.budget)
        # Fail fast on the knobs otherwise only checked deep inside the run,
        # after the (expensive) exact whole-trace profiling already happened.
        check_choice("method", self.method, ALLOC_METHODS)
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


def _windowed_profile(windows: TenantWindows, end: int, budget: int, unit: int):
    """Every tenant's windowed miss ratios at epoch end ``end``, and their discretization, batched.

    Returns the tenants with a non-empty sampled window (traffic), their ``(tenants, budget)`` ratio matrix (for the
    detector) and every tenant's discretized curve (for the controller): the idle zero-demand curve for the others.
    """
    tenants, offered, ratios = windows.ratios(end, budget)
    curves: list[DiscretizedMRC] = [idle_curve(unit)] * windows.num_tenants
    for t, curve in zip(tenants, discretize_ratios(ratios, offered, budget, unit)):
        curves[t] = curve
    return tenants, ratios, curves


def _initial_split(num_tenants: int, budget: int, unit: int) -> tuple[int, ...]:
    """Deterministic cold-start split: equal units, remainder to low indices."""
    units = budget // unit
    base, extra = divmod(units, num_tenants)
    return tuple((base + (1 if t < extra else 0)) * unit for t in range(num_tenants))


def replay_fingerprint(workload: DriftingWorkload, job: OnlineJob) -> str:
    """Stable identity of one logical replay (workload + job).

    Pins a checkpoint store to exactly one run: the job knobs, the phase
    boundaries and a CRC of both trace columns all feed the
    :func:`~repro.resilience.checkpoint.fingerprint`, so resuming with *any*
    different configuration is rejected up front.
    """
    composed = workload.composed
    basis = {
        "job": asdict(job),
        "accesses": int(composed.trace.accesses.size),
        "tenants": list(composed.names),
        "boundaries": [int(b) for b in workload.boundaries],
    }
    return run_fingerprint("online", basis, {"items": composed.trace.accesses, "ids": composed.tenant_ids})


@dataclass
class _Progress:
    """Where a replay stands and what it has counted so far.

    Together with the lanes and the detector this is everything a snapshot
    holds: :func:`_snapshot` writes one key per field and :func:`_resume`
    reads them back.
    """

    position: int = 0
    phase: int = 0
    #: Refining after a flag or an applied move: the controller is consulted again next epoch.
    settling: bool = False
    epoch_index: int = 0
    epoch_start: int = 0
    epochs: list[EpochStats] = field(default_factory=list)
    profiled_references: int = 0
    reallocations: int = 0
    phase_changes: int = 0
    profile_failures: int = 0


#: The decision of an epoch that does not consult the controller.
_HOLD = ReallocationDecision(applied=False, allocation=(), predicted_gain=0.0, penalty=0.0, moved_blocks=0)


def _end_epoch(progress, job, boundaries, windows, lanes, controller, detector, anchors, counters) -> None:
    """Close the epoch ending at ``progress.position`` and start the next one.

    Refreshes every tenant's windowed profile, feeds the detector (``anchors[t]``
    records the epoch end of tenant ``t``'s reference), consults the controller
    when due, and records the epoch's :class:`EpochStats` from ``counters``.
    """
    position = progress.position
    retained = windows.retained[position]
    progress.profiled_references += retained
    with span("online.window_profile"):
        tenants, ratios, curves = _windowed_profile(windows, position, int(job.budget), int(job.unit))
    failed = []
    for t in range(len(curves)):
        try:
            _fire_fault("online.profile", t)
        except Exception:
            # Degrade, never crash: the detector skips the tenant and the
            # controller is skipped below, so the allocation stays put.
            failed.append(t)
    progress.profile_failures += len(failed)
    if failed:
        live = ~np.isin(tenants, failed)
        tenants, ratios = np.compress(live, tenants).tolist(), ratios[live]
    with span("online.detector"):  # tenants with no traffic or a failed extraction are not observed
        observation = detector.observe(ratios, tenants)
    for t, flagged in zip(tenants, observation.changed.tolist()):
        if flagged or anchors[t] is None:  # the curve became the tenant's reference
            anchors[t] = position
    distance, changed = float(observation.distance.max(initial=0.0)), bool(observation.changed.any())
    if changed:
        progress.phase_changes += 1
    # The controller is consulted on a phase-change flag, on the fixed
    # re-allocation cadence, or while *settling* — refining after a flag
    # or an applied move, when the window is still absorbing the new
    # regime.  Quiet unflagged epochs between cadence points never
    # re-partition, so threshold/hysteresis genuinely gate churn.
    decision = _HOLD
    if not failed and (changed or progress.settling or progress.epoch_index % job.realloc_epochs == 0):
        with span("online.controller"):
            decision = controller.decide(curves, lanes.capacities("adaptive"), horizon=job.epoch * job.horizon_epochs)
        if decision.applied:
            lanes.resize("adaptive", decision.allocation)
            progress.reallocations += 1
        progress.settling = decision.applied or changed

    total = position - progress.epoch_start
    stats = EpochStats(
        index=progress.epoch_index,
        start=progress.epoch_start,
        end=position,
        # Label the epoch with the phase of its *last event*: when an epoch
        # ends exactly on a boundary, `progress.phase` has already advanced to
        # the next regime even though every recorded event belongs to the old one.
        phase=phase_of_last_event(boundaries, position),
        static_miss_ratio=counters["static"][1] / total,
        adaptive_miss_ratio=counters["adaptive"][1] / total,
        oracle_miss_ratio=counters["oracle"][1] / total,
        distance=distance,
        phase_change=changed,
        reallocated=decision.applied,
        moved_blocks=decision.moved_blocks if decision.applied else 0,
        adaptive_allocation=lanes.capacities("adaptive"),
    )
    progress.epochs.append(stats)
    registry = get_registry()
    if registry.enabled:
        # The per-epoch time series is EpochStats.row() plus the
        # controller's pricing of the epoch's decision and the sketch
        # sample volume — purely observational, never read back.
        registry.series("online.epochs").record(
            **stats.row(),
            sketch_sampled=retained,
            gain=decision.predicted_gain,
            penalty=decision.penalty,
            profile_failures=len(failed),
        )
        if changed:
            registry.counter("online.phase_changes").inc()
        if decision.applied:
            registry.counter("online.reallocations").inc()
            registry.counter("online.moved_blocks").add(decision.moved_blocks)

    progress.epoch_index += 1
    progress.epoch_start = position
    for key in counters:
        counters[key] = [0, 0]


def _snapshot(progress, lanes, detector, anchors) -> dict:
    """Checkpoint state at an epoch end; each tenant's detector reference is stored as its epoch end."""
    return {
        **vars(progress),
        # Field tuples pickle ~3x faster than the dataclasses.
        "epochs": [tuple(vars(epoch).values()) for epoch in progress.epochs],
        "lanes": lanes.state_dict(),
        "detectors": [{**tenant, "reference": anchor} for tenant, anchor in zip(detector.state_dict(), anchors)],
    }


def _resume(state, job, windows, lanes, detector, anchors) -> _Progress:
    """Restore a :func:`_snapshot`'s lanes and detector in place and return its progress.

    Snapshots are taken at epoch ends only, right after the counters reset, so
    the epoch counters are implicitly zero.  Everything deterministic (distance
    arrays, static/oracle profiles, the stop schedule, the windows) is
    recomputed from the trace, and so is every detector reference: the
    snapshot holds only the epoch end each was taken at.  Other keys (stores
    of earlier builds also hold the controller's counters) are not read.
    """
    lanes.load_state_dict(state["lanes"])
    budget, unit = int(job.budget), int(job.unit)
    profile_at = functools.cache(lambda end: _windowed_profile(windows, end, budget, unit))  # once per anchor
    tenants = []
    for t, tenant in enumerate(state["detectors"]):
        anchors[t] = anchor = tenant["reference"]
        if anchor is not None:
            observed, ratios, _curves = profile_at(anchor)
            tenant = {**tenant, "reference": ratios[observed.index(t)]}
        tenants.append(tenant)
    detector.load_state_dict(tenants)
    progress = _Progress(**{f.name: state[f.name] for f in fields(_Progress)})
    progress.epochs = [EpochStats(*epoch) for epoch in progress.epochs]
    return progress


def run_replay(
    workload: DriftingWorkload,
    job: OnlineJob,
    *,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> ReplayResult:
    """Replay a drifting workload under static, adaptive and oracle partitioning.

    With ``checkpoint_dir`` the replay snapshots its dynamic state every
    ``checkpoint_every`` completed epochs (atomic, checksummed, fingerprinted
    — see :mod:`repro.resilience.checkpoint`), less what a resume re-derives
    from the trace: the windowed profiles and the curves extracted from them.  A
    killed run restarted with ``resume=True`` continues from the latest
    snapshot and produces rows and summaries **bit-identical** to the
    uninterrupted run (asserted in ``tests/resilience/``).  ``resume=True`` with an empty or absent store
    simply runs from the start, so the flag is safe to pass unconditionally.
    """
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

    # Stops are every epoch end plus every phase boundary (oracle resizes
    # there); the lanes advance chunk by chunk between stops.
    stops, ends = replay_stops(n, job.epoch, workload.boundaries)

    # Whole-trace (static) and per-phase (oracle) exact profiles — both are
    # method-independent inputs computed up front.  ONE distance pass per
    # tenant yields the static profiles (histogram of the whole array), the
    # per-phase oracle profiles (an access whose previous access predates the
    # phase is simply cold there — no re-processing), and then drives every lane.
    # One more pass per tenant, over its sampled references, yields every
    # epoch's windowed (adaptive) profile by the same identity.
    with span("online.profiles"):
        passes = TenantDistancePasses(items, ids, num_tenants)
        static_curves = [passes.whole_stream_curve(t, budget, unit) for t in range(num_tenants)]
        phase_curves = [
            [passes.window_curve(t, workload.phase_slice(p), budget, unit) for t in range(num_tenants)]
            for p in range(workload.num_phases)
        ]
        passes.previous = None  # read by the phase curves only
        windows = TenantWindows(items, passes.positions, stops, ends, job.window, job.decay, job.rate, job.profile_seed)
    static_allocation = controller.propose(static_curves)
    oracle_allocations = [controller.propose(curves) for curves in phase_curves]
    lanes = LaneSet(
        passes.distances,
        {
            "static": static_allocation,
            "adaptive": _initial_split(num_tenants, budget, unit),
            "oracle": oracle_allocations[0],
        },
    )
    detector = PhaseChangeDetector(num_tenants, threshold=job.threshold, hysteresis=job.hysteresis)
    # The epoch end each tenant's detector reference was taken at (None before).
    anchors: list[int | None] = [None] * num_tenants
    counters = {"static": [0, 0], "adaptive": [0, 0], "oracle": [0, 0]}  # [hits, misses] this epoch
    fingerprint = replay_fingerprint(workload, job) if checkpoint_dir is not None else None

    progress = _Progress()
    if resume and latest_step(checkpoint_dir) is not None:
        state = load_checkpoint(checkpoint_dir, fingerprint=fingerprint).state
        progress = _resume(state, job, windows, lanes, detector, anchors)

    with span("online.replay"):
        for stop in stops:
            if stop <= progress.position:  # already replayed before the resume point
                continue
            lanes.advance(items[progress.position : stop], ids[progress.position : stop], counters)
            progress.position = stop
            if progress.phase + 1 < workload.num_phases and stop >= workload.boundaries[progress.phase + 1]:
                progress.phase += 1
                lanes.resize("oracle", oracle_allocations[progress.phase])
            if stop not in ends:
                continue
            _end_epoch(progress, job, workload.boundaries, windows, lanes, controller, detector, anchors, counters)
            step = progress.epoch_index
            if checkpoint_dir is not None and step % checkpoint_every == 0:
                with span("online.checkpoint"):
                    state = _snapshot(progress, lanes, detector, anchors)
                    write_checkpoint(checkpoint_dir, step, state, fingerprint=fingerprint, command="online")
                _fire_fault("online.checkpoint", step)

    registry = get_registry()
    registry.counter("online.events").add(n)
    registry.counter("online.profiled_references").add(progress.profiled_references)
    registry.gauge("online.tenants").set(num_tenants)
    return ReplayResult(
        name=job.name,
        accesses=n,
        tenants=composed.names,
        budget=budget,
        epochs=tuple(progress.epochs),
        static_miss_ratio=lanes.miss_ratio("static"),
        adaptive_miss_ratio=lanes.miss_ratio("adaptive"),
        oracle_miss_ratio=lanes.miss_ratio("oracle"),
        static_allocation=tuple(static_allocation),
        final_allocation=lanes.capacities("adaptive"),
        reallocations=progress.reallocations,
        phase_changes=progress.phase_changes,
        profiled_references=progress.profiled_references,
        oracle_allocations=tuple(tuple(a) for a in oracle_allocations),
        profile_failures=progress.profile_failures,
    )
