"""Policy-sweep engine: many cache configurations, one (or few) trace passes.

A :class:`SweepJob` names a trace, a set of replacement policies and a grid of
capacities; :func:`run_sweep` evaluates the full ``policies × capacities``
matrix and returns a :class:`SweepResult`.  The engine never replays the trace
once per configuration:

* **LRU** — the entire capacity grid comes from one stack-distance pass
  (:func:`repro.sim.kernels.lru_sweep_hits`).
* **FIFO / random** — one lane-vectorised pass simulates every capacity of the
  policy together; with ``workers > 1`` the capacity grid is partitioned
  across forked processes (lanes are independent, and the random kernel's
  shared deviate stream makes the partition invisible to the results).
* **set-associative** — capacities are independent set-partitioned
  stack-distance passes, fanned out one capacity per pool task.

The pool plumbing is the engine runner (:mod:`repro.engine.runner`), shared
with the profiling engine and the online replay; ``workers=1`` runs
everything inline and is always bit-identical to any ``workers > 1`` run
with the same job.

Item labels are density-compacted once up front
(:func:`~repro.sim.kernels.compact_trace`) for the flat-table LRU/FIFO/random
kernels, whose results are invariant under relabelling; the set-associative
kernel runs on the *original* labels, because its ``item % num_sets`` mapping
is not — its results match simulating the user's actual trace.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..engine.job import check_positive, knob
from ..engine.runner import check_workers, fork_available, pool_map, published_arrays, resolve_array
from ..obs import get_registry, span
from ..resilience.checkpoint import fingerprint as run_fingerprint
from ..resilience.checkpoint import latest_step, load_checkpoint, write_checkpoint
from ..resilience.faults import fire as _fire_fault
from ..resilience.policy import RetryPolicy
from .kernels import (
    check_capacities,
    compact_trace,
    fifo_sweep_hits,
    lru_sweep_hits,
    random_sweep_hits,
    set_associative_sweep_hits,
)

__all__ = ["POLICIES", "SweepJob", "PolicySweep", "SweepResult", "run_sweep"]

#: Replacement policies the sweep engine understands.
POLICIES = ("lru", "fifo", "random", "set-associative")


@dataclass(frozen=True)
class SweepJob:
    """Specification of one policy sweep (picklable, pool-dispatchable).

    Exactly one of ``trace`` (integer array) or ``path`` (text trace file
    readable by :func:`repro.trace.io.read_text`) must be provided.  The
    capacity grid is normalised to a sorted tuple of distinct positive
    integers; for the set-associative policy, capacities that are not
    multiples of ``ways`` are skipped (that policy's grid keeps only the
    realisable configurations), and requesting it with a grid containing no
    realisable capacity at all is an error rather than a silently empty
    result.
    """

    trace: np.ndarray | None = None
    path: str | None = None
    name: str = "trace"
    policies: tuple[str, ...] = ("lru",)
    capacities: tuple[int, ...] = ()
    ways: int = knob(4, "associativity of the set-associative policy")
    seed: int = knob(0, "seed of the random-replacement policy")

    def __post_init__(self):
        if (self.trace is None) == (self.path is None):
            raise ValueError("provide exactly one of trace= or path=")
        policies = tuple(self.policies)
        unknown = [p for p in policies if p not in POLICIES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}; choose from {list(POLICIES)}")
        if not policies:
            raise ValueError("need at least one policy to sweep")
        caps = check_capacities(np.asarray(self.capacities))
        normalised = tuple(int(c) for c in np.unique(caps))
        check_positive("ways", self.ways)
        if "set-associative" in policies and not any(c % int(self.ways) == 0 for c in normalised):
            raise ValueError(
                f"set-associative sweep needs at least one capacity that is a "
                f"multiple of ways={int(self.ways)}; got {list(normalised)}"
            )
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "capacities", normalised)
        object.__setattr__(self, "ways", int(self.ways))

    def capacities_for(self, policy: str) -> tuple[int, ...]:
        """The realisable capacity grid for one policy (filters set-associative)."""
        if policy == "set-associative":
            return tuple(c for c in self.capacities if c % self.ways == 0)
        return self.capacities


@dataclass(frozen=True)
class PolicySweep:
    """Hit counts of one policy across its capacity grid."""

    policy: str
    capacities: tuple[int, ...]
    hits: tuple[int, ...]
    accesses: int
    seconds: float

    @property
    def misses(self) -> tuple[int, ...]:
        """Miss counts, aligned with ``capacities``."""
        return tuple(self.accesses - h for h in self.hits)

    @property
    def miss_ratios(self) -> tuple[float, ...]:
        """Miss ratios, aligned with ``capacities``."""
        return tuple(m / self.accesses for m in self.misses)

    def miss_ratio_at(self, capacity: int) -> float:
        """Miss ratio at one swept capacity (raises if it was not in the grid)."""
        try:
            index = self.capacities.index(int(capacity))
        except ValueError:
            raise KeyError(f"capacity {capacity} was not swept for policy {self.policy!r}") from None
        return self.miss_ratios[index]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one :class:`SweepJob`: a :class:`PolicySweep` per policy."""

    name: str
    accesses: int
    footprint: int
    sweeps: tuple[PolicySweep, ...]

    def __getitem__(self, policy: str) -> PolicySweep:
        for sweep in self.sweeps:
            if sweep.policy == policy:
                return sweep
        raise KeyError(f"policy {policy!r} was not part of this sweep")

    def rows(self) -> list[dict]:
        """Flat ``policy × capacity`` rows for tables and CSV export."""
        out: list[dict] = []
        for sweep in self.sweeps:
            for capacity, hits, ratio in zip(sweep.capacities, sweep.hits, sweep.miss_ratios):
                out.append(
                    {
                        "trace": self.name,
                        "policy": sweep.policy,
                        "capacity": capacity,
                        "accesses": self.accesses,
                        "hits": hits,
                        "misses": self.accesses - hits,
                        "miss_ratio": ratio,
                    }
                )
        return out

    def summary(self) -> dict:
        """One aggregate scoreboard row across every swept policy."""
        return {
            "trace": self.name,
            "accesses": self.accesses,
            "footprint": self.footprint,
            "policies": len(self.sweeps),
            "points": sum(len(sweep.capacities) for sweep in self.sweeps),
            "seconds": sum(sweep.seconds for sweep in self.sweeps),
        }


def _load(job: SweepJob) -> np.ndarray:
    if job.trace is not None:
        return np.asarray(job.trace)
    from ..trace.io import read_text

    return read_text(Path(job.path)).accesses


#: Keys into the per-task trace payload: the lane kernels want compacted
#: labels, the set-associative kernel the original ones (its ``item %
#: num_sets`` mapping is label-dependent).
_TRACE_KEY = {"lru": "dense", "fifo": "dense", "random": "dense", "set-associative": "raw"}


def _run_task(task: tuple) -> tuple[str, tuple[int, ...], np.ndarray, float]:
    """Evaluate one (policy, capacity-chunk) task; returns hits plus compute seconds."""
    policy, caps, payload, distinct, ways, seed = task
    trace = resolve_array(payload)
    capacities = np.asarray(caps, dtype=np.int64)
    with span("sweep.task", policy=policy) as timer:
        if policy == "lru":
            hits = lru_sweep_hits(trace, capacities)
        elif policy == "fifo":
            hits = fifo_sweep_hits(trace, capacities, distinct=distinct)
        elif policy == "random":
            hits = random_sweep_hits(trace, capacities, seed=seed, distinct=distinct)
        elif policy == "set-associative":
            hits = set_associative_sweep_hits(trace, capacities, ways=ways)
        else:  # pragma: no cover - SweepJob validates policies
            raise ValueError(f"unknown policy {policy!r}")
    return policy, tuple(caps), hits, timer.seconds


def _tasks_for(job: SweepJob, arrays: dict[str, np.ndarray], distinct: int, workers: int, by_key: bool) -> list[tuple]:
    """Split the policy × capacity matrix into pool tasks.

    LRU is always a single task (one histogram pass covers the whole grid);
    FIFO/random grids are chunked only when a pool exists, because each chunk
    re-walks the trace; set-associative capacities are independent passes and
    fan out one per task.  With ``by_key`` the tasks reference the trace by
    its :func:`repro.engine.runner.published_arrays` key instead of embedding
    the array, so task tuples stay a few bytes each.
    """
    tasks: list[tuple] = []
    for policy in job.policies:
        caps = job.capacities_for(policy)
        if policy == "lru" or workers == 1:
            chunks = [caps]
        elif policy == "set-associative":
            chunks = [(c,) for c in caps]
        else:
            pieces = min(workers, len(caps))
            chunks = [tuple(int(c) for c in part) for part in np.array_split(np.asarray(caps), pieces)]
        key = _TRACE_KEY[policy]
        payload = key if by_key else arrays[key]
        for chunk in chunks:
            if chunk:
                tasks.append((policy, tuple(chunk), payload, distinct, job.ways, job.seed))
    return tasks


def _sweep_fingerprint(job: SweepJob, trace: np.ndarray) -> str:
    """Stable identity of one logical sweep (job knobs + trace contents).

    Deliberately excludes ``workers``: task *chunking* varies with the worker
    count, but outcomes are memoized by their ``policy:capacities`` key, so a
    resume under a different worker count reuses every chunk it recognises
    and recomputes the rest — the merged result is identical either way.
    """
    basis = {
        "name": job.name,
        "policies": list(job.policies),
        "capacities": [int(c) for c in job.capacities],
        "ways": int(job.ways),
        "seed": int(job.seed),
        "accesses": int(trace.size),
    }
    return run_fingerprint("sweep", basis, {"trace": trace})


def _task_key(task: tuple) -> str:
    """Memoization key of one pool task: its policy and capacity chunk."""
    policy, caps = task[0], task[1]
    return f"{policy}:{','.join(str(int(c)) for c in caps)}"


def run_sweep(
    job: SweepJob,
    *,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> SweepResult:
    """Evaluate every policy of ``job`` over its capacity grid.

    ``workers`` fans (policy, capacity-chunk) tasks across forked processes;
    the result is bit-identical for every worker count (asserted in
    ``tests/sim/test_sweep.py``), including the seeded random policy.

    ``policy`` (a :class:`repro.resilience.RetryPolicy`) hardens the pool:
    per-task timeouts, bounded retries and an inline fallback instead of a
    hang or a bare pickling error when a worker dies mid-task.

    With ``checkpoint_dir`` finished task outcomes are memoized to disk after
    every ``checkpoint_every`` completed tasks (atomic, checksummed,
    fingerprinted); a killed sweep restarted with ``resume=True`` recomputes
    only the tasks that never finished and merges to the identical result.
    ``resume=True`` against an empty store simply runs from the start.
    """
    workers = check_workers(workers)
    check_positive("checkpoint_every", checkpoint_every)
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs checkpoint_dir= naming the checkpoint store")
    raw = np.asarray(_load(job))
    dense, distinct = compact_trace(raw)
    arrays = {"dense": dense, "raw": raw.astype(np.int64, copy=False)}
    by_key = workers > 1 and fork_available()
    tasks = _tasks_for(job, arrays, distinct, workers, by_key)

    fingerprint = None
    by_outcome: dict[str, tuple] = {}
    if checkpoint_dir is not None:
        fingerprint = _sweep_fingerprint(job, raw)
        if resume and latest_step(checkpoint_dir) is not None:
            by_outcome = dict(load_checkpoint(checkpoint_dir, fingerprint=fingerprint).state["outcomes"])
    remaining = [task for task in tasks if _task_key(task) not in by_outcome]

    # Publish the trace arrays through the engine runner so forked children
    # inherit them copy-on-write instead of pickling the whole trace through
    # the task queue once per task; held open across checkpoint batches.
    publication = published_arrays(arrays) if by_key else contextlib.nullcontext()
    # Without a store every task is one batch.  With one, batches at least
    # `workers` wide keep the pool saturated even when checkpoint_every=1
    # asks for per-task durability.
    batch_size = max(len(remaining), 1) if checkpoint_dir is None else max(int(checkpoint_every), workers)
    completed = len(tasks) - len(remaining)
    with publication:
        for start in range(0, len(remaining), batch_size):
            batch = remaining[start : start + batch_size]
            by_outcome.update(zip(map(_task_key, batch), pool_map(_run_task, batch, workers=workers, policy=policy)))
            completed += len(batch)
            if checkpoint_dir is not None:
                with span("sweep.checkpoint"):
                    write_checkpoint(
                        checkpoint_dir, completed, {"outcomes": by_outcome}, fingerprint=fingerprint, command="sweep"
                    )
                _fire_fault("sweep.checkpoint", completed)
    outcomes = [by_outcome[_task_key(task)] for task in tasks]

    per_policy: dict[str, tuple[list[int], list[int], float]] = {}
    for policy, caps, hits, seconds in outcomes:
        caps_list, hits_list, total = per_policy.setdefault(policy, ([], [], 0.0))
        caps_list.extend(caps)
        hits_list.extend(int(h) for h in hits)
        per_policy[policy] = (caps_list, hits_list, total + seconds)

    registry = get_registry()
    sweeps = []
    for policy in job.policies:
        caps_list, hits_list, seconds = per_policy[policy]
        order = np.argsort(np.asarray(caps_list))
        sweeps.append(
            PolicySweep(
                policy=policy,
                capacities=tuple(int(caps_list[i]) for i in order),
                hits=tuple(int(hits_list[i]) for i in order),
                accesses=int(dense.size),
                seconds=float(seconds),
            )
        )
        # Kernel throughput in lane-references: every swept capacity is one
        # lane over the full trace.  Recorded from the returned outcome data
        # (not inside workers), so the aggregate is deterministic.
        registry.record_span("sweep.kernel", float(seconds), policy=policy)
        registry.counter("sweep.lane_refs", policy=policy).add(int(dense.size) * len(caps_list))
    registry.gauge("sweep.footprint").set(distinct)
    return SweepResult(name=job.name, accesses=int(dense.size), footprint=distinct, sweeps=tuple(sweeps))
