"""What the traced run times: the traced functions, their layers, the per-layer metrics.

Layers are the ``src/repro/`` subpackages.  A span name is
``<layer>.<part>``; the root span of each timed call is ``other.call``, so
time that no traced function covers shows as the uncovered ``other`` layer.
All ``*_s`` metrics are self seconds per timed call.
"""

from __future__ import annotations

import heapq

from .tracer import Span, Target, layer_seconds, outer_counts, self_seconds

LAYERS = ("trace", "cache", "engine", "online", "alloc", "sim", "profiling", "resilience")
ROOT_SPAN = "other.call"


def _refs(span, args, kwargs, result):
    span.counts["refs"] = len(args[0] if args else kwargs["trace"])


def _lane_refs(span, args, kwargs, result):
    # LaneSet.advance(self, chunk_items, chunk_ids, counters): every lane sees the chunk.
    span.counts["lane_refs"] = len(args[1]) * len(args[3])


def _hull_points(span, args, kwargs, result):
    span.counts["points"] = len(args[0])
    span.counts["vertices"] = len(result[0])


def _sampled(span, args, kwargs, result):
    span.counts["offered"] = len(args[0])
    span.counts["sampled"] = len(result[0])


def _task_seconds(outcome):
    """``(span name, seconds)`` of one pool task's outcome, or ``None`` if it carries no timing."""
    if isinstance(outcome, tuple) and len(outcome) == 4:  # sim.sweep._run_task
        policy, _capacities, _hits, seconds = outcome
        return f"sim.{policy}", float(seconds)
    seconds = getattr(outcome, "seconds", None)  # profiling.engine.run_job
    return None if seconds is None else ("profiling.profile", float(seconds))


def makespan(seconds: list[float], workers: int) -> float:
    """Finish time of tasks handed out in order, each to the first free of ``workers`` workers."""
    free = [0.0] * max(1, min(workers, len(seconds)))
    for task in seconds:
        heapq.heapreplace(free, free[0] + task)
    return max(free)


def _pool(span, args, kwargs, result):
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    workers = int(kwargs.get("workers", 1))
    span.counts["tasks"] = len(tasks)
    if workers == 1 or len(tasks) <= 1:
        return  # ran inline: the tasks' own spans are children of this one
    timed = [_task_seconds(outcome) for outcome in result]
    total = sum(seconds for _, seconds in timed) if None not in timed else 0.0
    if total <= 0.0:
        return
    # The parent waits about as long as the workers' schedule of the tasks
    # takes; that share of the wait is the tasks' work, the rest is the pool's.
    wait = makespan([seconds for _, seconds in timed], workers)
    for name, seconds in timed:
        span.remote[name] = span.remote.get(name, 0.0) + wait * seconds / total


TARGETS = (
    Target("repro.trace.io:read_text", "trace.read"),
    Target("repro.trace.tenancy:compose_tenants", "trace.compose"),
    Target("repro.trace.tenancy:MultiTenantTrace.tenant_trace", "trace.split"),
    Target("repro.cache.stack_distance:hit_counts", "cache.distance", _refs),
    Target("repro.cache.stack_distance:stack_distance_histogram", "cache.distance", _refs),
    Target("repro.cache.stack_distance:stack_distances_vectorized", "cache.distance", _refs),
    Target("repro.cache.stack_distance:stack_distances_with_previous", "cache.distance", _refs),
    Target("repro.engine.columnar:split_by_tenant", "engine.columnar"),
    Target("repro.engine.columnar:TenantDistancePasses.__init__", "engine.columnar"),
    Target("repro.engine.columnar:TenantDistancePasses.whole_stream_curve", "engine.columnar"),
    Target("repro.engine.columnar:TenantDistancePasses.window_curve", "engine.columnar"),
    Target("repro.engine.lanes:LaneSet.advance", "engine.lanes", _lane_refs),
    Target("repro.engine.lanes:LaneSet.resize", "engine.lanes"),
    Target("repro.engine.runner:pool_map", "engine.runner", _pool),
    Target("repro.online.replay:run_replay", "online.replay"),
    Target("repro.online.replay:_windowed_profile", "online.window_profile"),
    Target("repro.online.windowed:WindowedShardsSketch.update", "online.sketch"),
    Target("repro.online.windowed:WindowedShardsSketch.advance", "online.sketch"),
    Target("repro.online.windowed:WindowedShardsSketch.snapshot", "online.sketch"),
    Target("repro.online.phases:PhaseChangeDetector.observe", "online.detector"),
    Target("repro.online.controller:ReallocationController.decide", "online.controller"),
    Target("repro.online.controller:ReallocationController.propose", "online.controller"),
    Target("repro.online.replay:replay_fingerprint", "resilience.checkpoint"),
    Target("repro.resilience.checkpoint:write_checkpoint", "resilience.checkpoint"),
    Target("repro.alloc.allocators:hull_allocate", "alloc.hull"),
    Target("repro.alloc.curves:lower_convex_hull", "alloc.hull", _hull_points),
    Target("repro.alloc.allocators:dp_allocate", "alloc.dp"),
    Target("repro.alloc.allocators:_dp_top_up", "alloc.dp"),
    Target("repro.alloc.partition:run_partition", "alloc.partition"),
    Target("repro.alloc.partition:simulate_baselines", "alloc.validate"),
    Target("repro.alloc.partition:_simulated_miss_ratio", "alloc.validate"),
    Target("repro.sim.sweep:run_sweep", "sim.sweep"),
    Target("repro.sim.kernels:lru_sweep_hits", "sim.lru"),
    Target("repro.sim.kernels:fifo_sweep_hits", "sim.fifo"),
    Target("repro.profiling.engine:run_jobs", "profiling.profile"),
    Target("repro.profiling.engine:run_job", "profiling.profile"),
    Target("repro.profiling.shards:shards_mrc", "profiling.profile"),
    Target("repro.profiling.shards:sample_trace", "profiling.profile", _sampled),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("coverage", "ratio", "higher"),
    ("trace_overhead_pct", "%", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("untraced_wall_s", "s", "lower"),
    *((f"layer.{name}_s", "s", "lower") for name in LAYERS + ("other",)),
    ("cache.distance_s", "s", "lower"),
    ("cache.distance_refs", "count", "lower"),
    ("cache.distance_refs_per_s", "1/s", "higher"),
    ("engine.columnar_s", "s", "lower"),
    ("engine.lanes_s", "s", "lower"),
    ("engine.lane_refs_per_s", "1/s", "higher"),
    ("engine.runner_overhead_s", "s", "lower"),
    ("engine.pool_tasks", "count", "lower"),
    ("engine.pool_retries", "count", "lower"),
    ("online.sketch_update_s", "s", "lower"),
    ("online.window_profile_s", "s", "lower"),
    ("online.detector_s", "s", "lower"),
    ("online.controller_s", "s", "lower"),
    ("online.replay_self_s", "s", "lower"),
    ("online.profiled_refs", "count", "lower"),
    ("online.decisions", "count", "lower"),
    ("online.applied_ratio", "ratio", "higher"),
    ("alloc.hull_s", "s", "lower"),
    ("alloc.hull_points_in", "count", "lower"),
    ("alloc.hull_vertex_ratio", "ratio", "higher"),
    ("alloc.dp_s", "s", "lower"),
    ("alloc.validate_s", "s", "lower"),
    ("alloc.partition_self_s", "s", "lower"),
    ("sim.lru_s", "s", "lower"),
    ("sim.fifo_s", "s", "lower"),
    ("sim.sweep_self_s", "s", "lower"),
    ("sim.lane_refs_per_s", "1/s", "higher"),
    ("trace.read_s", "s", "lower"),
    ("trace.compose_s", "s", "lower"),
    ("trace.split_s", "s", "lower"),
    ("profiling.profile_s", "s", "lower"),
    ("profiling.sampled_ratio", "ratio", "lower"),
    ("resilience.checkpoint_s", "s", "lower"),
    ("resilience.checkpoint_bytes", "B", "lower"),
    ("resilience.checkpoints", "count", "lower"),
    ("obs.online.profiles_s", "s", "lower"),
    ("obs.online.replay_s", "s", "lower"),
    ("obs.online.checkpoint_s", "s", "lower"),
    ("obs.partition.profile_s", "s", "lower"),
    ("obs.partition.allocate_s", "s", "lower"),
    ("obs.sweep.task_s", "s", "lower"),
)


def _obs(snapshot: dict, kind: str, name: str) -> float:
    """One ``repro.obs`` metric summed over its label sets (a span's total seconds)."""
    total = 0.0
    for (found_kind, found_name, _labels), value in snapshot.items():
        if found_kind == kind and found_name == name:
            total += value[1] if kind == "span" else value
    return float(total)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def call_metrics(spans: list[Span], run: int, obs: dict) -> dict[str, float]:
    """Per-layer metrics of traced call ``run``; ``obs`` is the call's ``MetricsRegistry.snapshot()``.

    Every metric of :data:`PER_LAYER` except the two that the caller adds
    from the untraced calls: ``untraced_wall_s`` and ``trace_overhead_pct``.
    """
    root = next(span for span in spans if span.run == run and span.name == ROOT_SPAN)
    totals = self_seconds(spans, run)
    layers = layer_seconds(totals)
    counts = outer_counts(spans, run)

    def own(name):
        return totals.get(name, 0.0)

    def count(key):
        return counts.get(key, 0.0)

    evaluations = _obs(obs, "counter", "controller.evaluations")
    metrics = {
        "coverage": 1.0 - layers.get("other", 0.0) / root.seconds,
        "traced_wall_s": root.seconds,
        **{f"layer.{name}_s": layers.get(name, 0.0) for name in LAYERS + ("other",)},
        "cache.distance_s": own("cache.distance"),
        "cache.distance_refs": count("cache.distance:refs"),
        "cache.distance_refs_per_s": _ratio(count("cache.distance:refs"), own("cache.distance")),
        "engine.columnar_s": own("engine.columnar"),
        "engine.lanes_s": own("engine.lanes"),
        "engine.lane_refs_per_s": _ratio(count("engine.lanes:lane_refs"), own("engine.lanes")),
        "engine.runner_overhead_s": own("engine.runner"),
        "engine.pool_tasks": count("engine.runner:tasks"),
        "engine.pool_retries": _obs(obs, "counter", "pool.retries"),
        "online.sketch_update_s": own("online.sketch"),
        "online.window_profile_s": own("online.window_profile"),
        "online.detector_s": own("online.detector"),
        "online.controller_s": own("online.controller"),
        "online.replay_self_s": own("online.replay"),
        "online.profiled_refs": _obs(obs, "counter", "online.profiled_references"),
        "online.decisions": evaluations,
        "online.applied_ratio": _ratio(_obs(obs, "counter", "controller.applications"), evaluations),
        "alloc.hull_s": own("alloc.hull"),
        "alloc.hull_points_in": count("alloc.hull:points"),
        "alloc.hull_vertex_ratio": _ratio(count("alloc.hull:vertices"), count("alloc.hull:points")),
        "alloc.dp_s": own("alloc.dp"),
        "alloc.validate_s": own("alloc.validate"),
        "alloc.partition_self_s": own("alloc.partition"),
        "sim.lru_s": own("sim.lru"),
        "sim.fifo_s": own("sim.fifo"),
        "sim.sweep_self_s": own("sim.sweep"),
        "sim.lane_refs_per_s": _ratio(_obs(obs, "counter", "sweep.lane_refs"), _obs(obs, "span", "sweep.kernel")),
        "trace.read_s": own("trace.read"),
        "trace.compose_s": own("trace.compose"),
        "trace.split_s": own("trace.split"),
        "profiling.profile_s": own("profiling.profile"),
        "profiling.sampled_ratio": _ratio(count("profiling.profile:sampled"), count("profiling.profile:offered")),
        "resilience.checkpoint_s": own("resilience.checkpoint"),
        "resilience.checkpoint_bytes": _obs(obs, "counter", "checkpoint.bytes"),
        "resilience.checkpoints": _obs(obs, "counter", "checkpoint.writes"),
        "obs.online.profiles_s": _obs(obs, "span", "online.profiles"),
        "obs.online.replay_s": _obs(obs, "span", "online.replay"),
        "obs.online.checkpoint_s": _obs(obs, "span", "online.checkpoint"),
        "obs.partition.profile_s": _obs(obs, "span", "partition.profile"),
        "obs.partition.allocate_s": _obs(obs, "span", "partition.allocate"),
        # The sweep records each task's own timer (the worker-side
        # ``sweep.task`` span) in the parent as ``sweep.kernel``.
        "obs.sweep.task_s": _obs(obs, "span", "sweep.kernel"),
    }
    return metrics


def format_breakdown(workload: str, metrics: dict[str, float], calls: int) -> list[str]:
    """The per-layer breakdown table of one workload's traced run (medians over its calls)."""
    wall = metrics["traced_wall_s"]
    lines = [
        f"breakdown {workload}: medians of {calls} traced calls; traced wall {wall:.4f} s, "
        f"untraced {metrics['untraced_wall_s']:.4f} s, trace overhead {metrics['trace_overhead_pct']:+.1f}%",
        f"  {'layer / part':<28}{'self_s':>10}{'% wall':>9}",
    ]
    for layer in LAYERS + ("other",):
        seconds = metrics[f"layer.{layer}_s"]
        note = "  (uncovered)" if layer == "other" else ""
        lines.append(f"  {layer:<28}{seconds:>10.4f}{100 * seconds / wall:>8.1f}%{note}")
        for name, unit, _better in PER_LAYER:
            if name.startswith(layer + ".") and unit == "s" and metrics[name] > 0.0:
                lines.append(f"    {name:<26}{metrics[name]:>10.4f}{100 * metrics[name] / wall:>8.1f}%")
    lines.append(f"  coverage: named layers hold {100 * metrics['coverage']:.1f}% of traced wall time")
    return lines
