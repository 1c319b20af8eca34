"""Online adaptive re-partitioning: windowed profiles, phase detection, control.

The offline stack (:mod:`repro.profiling` → :mod:`repro.alloc`) decides a
cache partition once from whole-trace profiles; this subpackage closes the
loop for *changing* traffic:

:mod:`repro.online.windowed`
    Incremental windowed/decayed SHARDS sketches — the MRC of the traffic in
    the last ``window`` references, refreshed as events stream in.
:mod:`repro.online.phases`
    Hysteresis-filtered regime-shift detection from the distance between
    successive windowed curves.
:mod:`repro.online.controller`
    Move-cost-aware re-allocation: re-run an allocator on the fresh profiles
    and apply the proposal only when the predicted gain beats the warm-up
    cost of moving blocks between tenants.
:mod:`repro.online.replay`
    The streaming driver: one event loop replaying a drifting multi-tenant
    trace (:mod:`repro.trace.drift`) under static, adaptive and
    oracle-per-phase partitioning at once.

Examples
--------
>>> from repro.online import WindowedShardsSketch
>>> sketch = WindowedShardsSketch(window=6, rate=1.0)
>>> sketch.update([0, 1, 2, 0, 1, 2, 0, 1, 2])
>>> sketch.curve()[3]  # window [0,1,2,0,1,2]: 3 cold misses, 3 hits at size 3
0.5
"""

from .controller import ReallocationController, ReallocationDecision
from .phases import PhaseChangeDetector, PhaseObservation
from .replay import EpochStats, OnlineJob, ReplayResult, run_replay
from .windowed import WindowedShardsSketch, WindowSnapshot, curve_of_snapshot, pooled_curve

__all__ = [
    "WindowedShardsSketch",
    "WindowSnapshot",
    "curve_of_snapshot",
    "pooled_curve",
    "PhaseChangeDetector",
    "PhaseObservation",
    "ReallocationController",
    "ReallocationDecision",
    "OnlineJob",
    "EpochStats",
    "ReplayResult",
    "run_replay",
]
