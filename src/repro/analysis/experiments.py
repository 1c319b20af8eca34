"""Experiment drivers that regenerate every figure and numeric claim of the paper.

Each ``run_*`` function corresponds to one row of the experiment index in
``DESIGN.md`` and returns plain Python data (lists/dicts of numbers) so that
the benchmark harness can both assert the qualitative shape the paper reports
and print the series.  ``EXPERIMENTS.md`` records the comparison.

Functions
---------
run_fig1_mrc_by_inversion
    Figure 1 — average miss-ratio curve per inversion number of ``S_m``.
run_fig2_chainfind_ties
    Figure 2 — how many arbitrary choices ChainFind must make vs. group size.
run_s11_ranked_labeling
    The Section V-B.2 numeric example on ``S_11``.
run_sawtooth_cyclic
    The canonical hit vectors (``hits_C(sawtooth4) = (1,2,3,4)`` etc.).
run_matrix_reuse
    Section VI-A2 total-reuse comparison for weight matrices.
run_theorem2_random
    Theorem 2 / Corollary 1 spot checks on random permutations of large ``m``.
run_mahonian_partitions
    Appendix VIII-F Mahonian counts and hit-vector partition characterisation.
run_miss_integral
    Appendix VIII-F integral of the normalised truncated miss vector.
run_policy_ablation
    Extension: does the Bruhat-order locality ranking survive under non-LRU
    policies and set-associativity?
run_feasibility_ablation
    Extension: exact vs. greedy constrained re-ordering on random dependence DAGs.
run_ml_schedule
    Section VI-A end-to-end: Theorem-4 alternation on MLP / attention traces.
run_sampling_ablation
    Extension: accuracy/cost frontier of the approximate MRC profilers
    (SHARDS sampling rates and the streaming reuse-time model) vs. the exact
    curve on a Zipfian trace.
run_policy_sweep
    Extension: the full policy × capacity miss-ratio matrix of a Zipfian
    trace via the single-pass sweep engine (:mod:`repro.sim`), one row per
    capacity with a column per policy.
run_partition_comparison
    Extension: multi-tenant cache partitioning (:mod:`repro.alloc`) on a
    composed Zipf/sawtooth/STREAM workload — one row per allocation method
    with predicted vs. simulated miss ratios and the win over the
    unpartitioned shared cache and the proportional split.
run_online_adaptation
    Extension: online adaptive re-partitioning (:mod:`repro.online`) on the
    canonical 3-phase drifting two-tenant workload — per-epoch miss-ratio
    series of static vs. adaptive vs. oracle-per-phase partitioning, plus
    the adaptation scoreboard (win over static, regret vs. the oracle,
    re-allocation count, profiling work).
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence

import numpy as np

from .._util import ensure_rng
from ..cache.belady import simulate_opt
from ..cache.fifo import FIFOCache
from ..cache.lru import LRUCache
from ..cache.set_associative import SetAssociativeCache
from ..core.chainfind import chain_find, count_tie_events
from ..core.feasibility import (
    DependencyDAG,
    best_feasible_extension,
    greedy_feasible_extension,
    random_linear_extension,
)
from ..core.hits import _miss_ratio_curves, cache_hit_vector, corollary1_deficit, theorem2_deficit, total_reuse
from ..core.inversions import _symmetric_group_blocks, max_inversions
from ..core.labelings import MissRatioLabeling, RankedMissRatioLabeling
from ..core.mahonian import (
    _partitions,
    _truncated_miss_integrals,
    integer_partitions,
    mahonian_number,
    mahonian_row,
    random_permutation_with_inversions,
)
from ..core.optimal import matrix_traversal_costs
from ..core.permutation import Permutation, random_permutation
from ..ml.schedule import compare_schedules
from ..trace.trace import PeriodicTrace

__all__ = [
    "run_fig1_mrc_by_inversion",
    "run_fig2_chainfind_ties",
    "run_s11_ranked_labeling",
    "run_sawtooth_cyclic",
    "run_matrix_reuse",
    "run_theorem2_random",
    "run_mahonian_partitions",
    "run_miss_integral",
    "run_online_adaptation",
    "run_partition_comparison",
    "run_policy_ablation",
    "run_policy_sweep",
    "run_feasibility_ablation",
    "run_ml_schedule",
    "run_sampling_ablation",
]


# --------------------------------------------------------------------------- #
# Figure 1
# --------------------------------------------------------------------------- #
def run_fig1_mrc_by_inversion(m: int = 5, *, convention: str = "full", max_cache_size: int | None = None) -> dict:
    """Average miss-ratio curve for each inversion number of ``S_m`` (Figure 1).

    Enumerates all ``m!`` permutations, groups them by inversion number and
    averages their miss-ratio curves element-wise, exactly as described in
    Section IV-E.  Returns the cache sizes, the per-level average curves, and
    the per-level permutation counts (the Mahonian numbers).
    """
    limit = max_cache_size or m
    by_level = _by_inversion_level(
        m, lambda distances: _miss_ratio_curves(distances, convention=convention, max_cache_size=limit)
    )
    return {
        "m": m,
        "convention": convention,
        "cache_sizes": list(range(1, limit + 1)),
        "levels": list(by_level),
        "counts": {ell: len(curves) for ell, curves in by_level.items()},
        "curves": {ell: [float(x) for x in curves.mean(axis=0)] for ell, curves in by_level.items()},
    }


def _by_inversion_level(m: int, per_row) -> dict[int, np.ndarray]:
    """``per_row(distances)`` over every permutation of ``S_m``, grouped by inversion number.

    Keys ascend; within a level the rows stay in lexicographic order, so the
    averages match a one-permutation-at-a-time sweep bit for bit.
    """
    parts: dict[int, list[np.ndarray]] = {}
    for _, distances in _symmetric_group_blocks(m):
        values, lengths = per_row(distances), m * m - distances.sum(axis=1)
        for ell in np.unique(lengths).tolist():
            parts.setdefault(ell, []).append(values[lengths == ell])
    return {ell: np.concatenate(parts[ell]) for ell in sorted(parts)}


def fig1_monotone_violations(result: dict) -> int:
    """Number of (level, cache-size) pairs where a higher inversion level has a *worse* average miss ratio.

    The paper's Figure 1 shows a clean separation by inversion number; this
    helper counts violations of that ordering in the reproduced data (0 means
    the separation is exact).
    """
    levels = result["levels"]
    curves = result["curves"]
    violations = 0
    for lower, higher in zip(levels, levels[1:]):
        lo = np.asarray(curves[lower])
        hi = np.asarray(curves[higher])
        violations += int(np.sum(hi > lo + 1e-12))
    return violations


# --------------------------------------------------------------------------- #
# Figure 2 and the S11 example
# --------------------------------------------------------------------------- #
def run_fig2_chainfind_ties(sizes: Sequence[int] = (3, 4, 5, 6, 7, 8)) -> list[dict]:
    """ChainFind tie statistics vs. group size for the λ_e labeling (Figure 2)."""
    return [count_tie_events(int(m), MissRatioLabeling()) for m in sizes]


def run_s11_ranked_labeling(m: int = 11) -> dict:
    """The Section V-B.2 example: λ_e vs. the ranked labeling λ_ψ on ``S_m`` (default 11).

    ψ is the cycle that slides the next-to-largest cache size to the front of
    the comparison order, as in the paper ("ψ = (1 10 9 8 7 6 5 4 3 2)").
    Reports the chain length and the tie statistics of both labelings.
    """
    identity = Permutation.identity(m)
    lambda_e = chain_find(identity, MissRatioLabeling())
    # psi: compare hits_{m-1} first, then hits_1, hits_2, ..., hits_{m-2}, hits_m
    psi = Permutation([m - 2] + list(range(0, m - 2)) + [m - 1])
    lambda_psi = chain_find(identity, RankedMissRatioLabeling(psi))
    return {
        "m": m,
        "chain_length": lambda_e.length,
        "lambda_e": {
            "arbitrary_choices": lambda_e.arbitrary_choice_count,
            "chain_multiplicity": lambda_e.chain_multiplicity,
            "reaches_top": lambda_e.end.is_reverse(),
        },
        "lambda_psi": {
            "psi": list(psi.one_indexed()),
            "arbitrary_choices": lambda_psi.arbitrary_choice_count,
            "chain_multiplicity": lambda_psi.chain_multiplicity,
            "reaches_top": lambda_psi.end.is_reverse(),
        },
    }


# --------------------------------------------------------------------------- #
# Canonical traces and Theorem 2
# --------------------------------------------------------------------------- #
def run_sawtooth_cyclic(sizes: Sequence[int] = (4, 8, 16, 64, 256)) -> list[dict]:
    """Hit vectors and total reuse of the cyclic and sawtooth re-traversals."""
    rows = []
    for m in sizes:
        m = int(m)
        saw = Permutation.reverse(m)
        cyc = Permutation.identity(m)
        rows.append(
            {
                "m": m,
                "sawtooth_hits_first4": list(map(int, cache_hit_vector(saw)[: min(4, m)])),
                "cyclic_hits_below_m": int(cache_hit_vector(cyc)[: m - 1].sum()) if m > 1 else 0,
                "sawtooth_total_reuse": total_reuse(saw),
                "cyclic_total_reuse": total_reuse(cyc),
                "sawtooth_inversions": saw.inversions(),
            }
        )
    return rows


def run_theorem2_random(sizes: Sequence[int] = (16, 64, 256, 1024, 2048), *, trials: int = 5, rng=0) -> list[dict]:
    """Theorem 2 / Corollary 1 checks on random permutations of large ``m``.

    Both deficits read their two sides off one distance pass, so a zero
    ``max_deviation`` checks the code; the tests check the theorem itself
    against an independent pairwise inversion count.
    """
    generator = ensure_rng(rng)
    rows = []
    for m in sizes:
        max_dev = 0
        for _ in range(trials):
            sigma = random_permutation(int(m), generator)
            max_dev = max(max_dev, abs(theorem2_deficit(sigma)), abs(corollary1_deficit(sigma)))
        rows.append({"m": int(m), "trials": trials, "max_deviation": int(max_dev)})
    return rows


def run_matrix_reuse(shapes: Sequence[tuple[int, int]] = ((4, 8), (16, 16), (32, 64), (128, 128))) -> list[dict]:
    """Section VI-A2: cyclic vs. sawtooth total reuse of an ``n × m`` weight matrix."""
    rows = []
    for n, m in shapes:
        costs = matrix_traversal_costs(int(n), int(m))
        nm = costs["elements"]
        rows.append(
            {
                "n": int(n),
                "m": int(m),
                "elements": nm,
                "cyclic_total_reuse": costs["cyclic"],
                "sawtooth_total_reuse": costs["sawtooth"],
                "paper_cyclic_formula": nm * nm,
                "paper_sawtooth_formula": nm * (nm + 1) // 2,
                "savings_ratio": costs["savings_ratio"],
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Appendix VIII-F
# --------------------------------------------------------------------------- #
def run_mahonian_partitions(m: int = 6) -> dict:
    """Mahonian counts and the hit-vector ↔ integer-partition characterisation for ``S_m``."""
    row = mahonian_row(m)
    # One sweep of S_m: each permutation's level is ℓ = m² − Σd (Theorem 2).
    levels = [Counter() for _ in range(max_inversions(m) + 1)]
    for _, distances in _symmetric_group_blocks(m):
        for level, partition in zip((m * m - distances.sum(axis=1)).tolist(), _partitions(distances)):
            levels[level][partition] += 1
    per_level = []
    for level, counts in enumerate(levels):
        feasible_partitions = set(integer_partitions(level, max_part=m - 1, max_parts=m - 1))
        per_level.append(
            {
                "inversions": level,
                "mahonian": mahonian_number(m, level),
                "permutations_enumerated": sum(counts.values()),
                "distinct_hit_vectors": len(counts),
                "partitions_of_level": len(feasible_partitions),
                "all_hit_vectors_are_partitions": set(counts) <= feasible_partitions,
            }
        )
    return {"m": m, "mahonian_row": list(row), "levels": per_level}


def run_miss_integral(m: int = 6) -> dict:
    """Integral of the normalised truncated miss vector at every inversion level of ``S_m``.

    Verifies the appendix claim: the integral is constant within a level and
    drops linearly from 1 (identity) to 0.5 (sawtooth) with slope
    ``1 / (m(m-1))`` per inversion.
    """
    by_level = _by_inversion_level(m, _truncated_miss_integrals)
    levels = list(by_level)
    rows = []
    for level, values in by_level.items():
        rows.append(
            {
                "inversions": level,
                "integral_mean": float(values.mean()),
                "integral_spread": float(values.max() - values.min()),
                "closed_form": 1.0 - level / (m * (m - 1)),
            }
        )
    slope = (rows[0]["integral_mean"] - rows[-1]["integral_mean"]) / (levels[-1] - levels[0])
    return {"m": m, "rows": rows, "per_inversion_drop": slope, "expected_drop": 1.0 / (m * (m - 1))}


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
def run_policy_ablation(
    m: int = 64,
    *,
    levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    cache_fraction: float = 0.5,
    trials: int = 5,
    rng=0,
) -> list[dict]:
    """Miss ratios of re-traversals at several locality levels under different cache models.

    For each normalised inversion level the re-traversal trace ``A σ(A)`` is
    replayed under fully-associative LRU, FIFO, Belady-OPT and a 4-way
    set-associative LRU cache of the same total capacity.  The LRU ordering
    should follow the inversion number exactly (Theorem 3); the others show
    how robust the ranking is to the policy assumption.
    """
    generator = ensure_rng(rng)
    capacity = max(1, int(round(cache_fraction * m)))
    ways = 4 if capacity % 4 == 0 else 1
    rows = []
    for fraction in levels:
        inversions = int(round(fraction * max_inversions(m)))
        lru_miss, fifo_miss, opt_miss, sa_miss = [], [], [], []
        for _ in range(trials):
            sigma = random_permutation_with_inversions(m, inversions, generator)
            trace = PeriodicTrace(sigma).to_trace().accesses
            lru = LRUCache(capacity)
            lru_miss.append(lru.run(trace.tolist()).miss_ratio)
            fifo = FIFOCache(capacity)
            fifo_miss.append(fifo.run(trace.tolist()).miss_ratio)
            opt_miss.append(simulate_opt(trace, capacity).miss_ratio)
            sa = SetAssociativeCache(capacity // ways, ways)
            sa_miss.append(sa.run(trace.tolist()).miss_ratio)
        rows.append(
            {
                "inversion_fraction": float(fraction),
                "inversions": inversions,
                "lru": float(np.mean(lru_miss)),
                "fifo": float(np.mean(fifo_miss)),
                "opt": float(np.mean(opt_miss)),
                "set_assoc_4way": float(np.mean(sa_miss)),
            }
        )
    return rows


def run_feasibility_ablation(
    m: int = 14,
    *,
    edge_probabilities: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.8),
    trials: int = 5,
    rng=0,
) -> list[dict]:
    """Exact vs. greedy vs. random feasible re-ordering on random dependence DAGs.

    Reports the achieved inversion numbers (normalised by the unconstrained
    maximum) for the exact bitmask DP, the largest-available-label greedy, and
    a random linear extension, as the dependence density grows.
    """
    generator = ensure_rng(rng)
    top = max_inversions(m)
    rows = []
    for p in edge_probabilities:
        exact_vals, greedy_vals, random_vals = [], [], []
        for _ in range(trials):
            dag = DependencyDAG.random(m, float(p), generator)
            _, exact = best_feasible_extension(dag)
            greedy = greedy_feasible_extension(dag).inversions()
            rand = random_linear_extension(dag, generator).inversions()
            exact_vals.append(exact / top)
            greedy_vals.append(greedy / top)
            random_vals.append(rand / top)
        rows.append(
            {
                "edge_probability": float(p),
                "exact_norm_inversions": float(np.mean(exact_vals)),
                "greedy_norm_inversions": float(np.mean(greedy_vals)),
                "random_norm_inversions": float(np.mean(random_vals)),
                "greedy_to_exact": float(np.mean(greedy_vals) / max(np.mean(exact_vals), 1e-12)),
            }
        )
    return rows


def run_sampling_ablation(
    length: int = 120_000,
    footprint: int = 8192,
    *,
    exponent: float = 0.8,
    rates: Sequence[float] = (0.1, 0.01),
    rng=7,
    repeats: int = 1,
) -> list[dict]:
    """Accuracy/cost frontier of approximate MRC profiling on a Zipfian trace.

    Builds the exact curve once, then each approximate profiler (SHARDS at
    every rate in ``rates`` plus the one-pass reuse-time/AET model) and
    reports wall time, speedup over exact, and mean/max absolute curve error.
    This is the predictable accuracy-vs-cost dial of the profiling subsystem:
    halving the rate should roughly halve the cost while degrading error
    gracefully.

    ``repeats`` reruns every timed pipeline that many times and keeps the
    fastest sample, so speedup ratios reflect the profilers rather than
    whatever else the machine was doing during a single shot.  The repeats
    run round-robin (exact, every SHARDS rate, reuse, then again), so a
    stretch of machine load slows every pipeline's samples alike instead of
    landing on one side of a ratio.
    """
    from ..cache.mrc import mrc_from_trace
    from ..profiling.accuracy import compare_curves
    from ..profiling.reuse import reuse_mrc
    from ..profiling.shards import shards_mrc
    from ..trace.generators import zipfian_trace

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    trace = zipfian_trace(length, footprint, exponent=exponent, rng=rng).accesses
    pipelines = [("exact", 1.0, lambda: mrc_from_trace(trace))]
    pipelines += [("shards", float(rate), lambda rate=rate: shards_mrc(trace, float(rate))) for rate in rates]
    pipelines.append(("reuse", 1.0, lambda: reuse_mrc(trace)))

    # Every pipeline is deterministic, so any sample's curve is the curve.
    curves = [None] * len(pipelines)
    best = [float("inf")] * len(pipelines)
    for _ in range(repeats):
        for i, (_, _, fn) in enumerate(pipelines):
            start = time.perf_counter()
            curves[i] = fn()
            best[i] = min(best[i], time.perf_counter() - start)

    exact, exact_seconds = curves[0], best[0]
    rows = []
    for (mode, rate, _), curve, seconds in zip(pipelines, curves, best):
        comparison = compare_curves(curve, exact)
        rows.append(
            {
                "mode": mode,
                "rate": rate,
                "seconds": seconds,
                "speedup": exact_seconds / max(seconds, 1e-9),
                "mae": comparison.mean_absolute_error,
                "max_error": comparison.max_absolute_error,
            }
        )
    return rows


def run_partition_comparison(
    budget: int = 2048,
    *,
    zipf_length: int = 30_000,
    zipf_footprint: int = 4096,
    exponent: float = 0.9,
    sawtooth_items: int = 4000,
    stream_n: int = 2000,
    workers: int = 1,
    rng: int = 7,
) -> dict:
    """Partitioning-method comparison on a composed Zipf/sawtooth/STREAM workload.

    The three canonical tenant shapes stress each allocator differently: the
    Zipfian tenant has a smooth, steep-then-flat curve (greedy territory),
    the sawtooth re-traversal a linear curve, and STREAM a pure cliff (no
    gain until its whole footprint fits — exactly what marginal-gain greedy
    cannot see and the convex hull / DP can).  Returns one row per method
    with the predicted and simulated partitioned miss ratios, the
    unpartitioned shared-cache and proportional-split baselines, and the
    wins over both.
    """
    from ..alloc.partition import METHODS, PartitionJob, partition_composed, profile_tenants, simulate_baselines
    from ..trace.generators import zipfian_trace
    from ..trace.tenancy import TenantSpec, compose_tenants
    from ..trace.workloads import stream_copy

    tenants = (
        TenantSpec(zipfian_trace(zipf_length, zipf_footprint, exponent=exponent, rng=rng), name="zipf"),
        TenantSpec(PeriodicTrace.sawtooth(sawtooth_items).to_trace(), name="sawtooth"),
        TenantSpec(stream_copy(stream_n, repetitions=3), name="stream"),
    )
    composed = compose_tenants(tenants, seed=rng, name="zipf+sawtooth+stream")
    # Profiling and the baseline simulations are method-independent; compute
    # both once and reuse them across the three allocators.
    base_job = PartitionJob(tenants=tenants, budget=budget, method=METHODS[0], seed=rng)
    profiles = profile_tenants(base_job, composed, workers=workers)
    baselines = simulate_baselines(composed, budget)
    rows = []
    for method in METHODS:
        job = PartitionJob(tenants=tenants, budget=budget, method=method, seed=rng)
        result = partition_composed(job, composed, workers=workers, profiles=profiles, baselines=baselines)
        rows.append(
            {
                "method": method,
                "allocation": "/".join(str(c) for c in result.allocation().values()),
                "predicted": result.predicted_miss_ratio,
                "simulated": result.simulated_miss_ratio,
                "error": result.prediction_error,
                "unpartitioned": result.unpartitioned_miss_ratio,
                "proportional": result.proportional_miss_ratio,
                "win_vs_unpartitioned": result.win_vs_unpartitioned,
                "win_vs_proportional": result.win_vs_proportional,
            }
        )
    return {
        "budget": budget,
        "tenants": [spec.name for spec in tenants],
        "accesses": len(composed.trace),
        "rows": rows,
    }


def run_online_adaptation(
    length_per_phase: int = 12_000,
    *,
    budget: int = 1150,
    window: int = 6000,
    epoch: int = 2000,
    rate: float = 0.5,
    rng: int = 7,
    **knobs,
) -> dict:
    """Online adaptive re-partitioning on the 3-phase drifting pair.

    The canonical seesaw workload (:func:`repro.trace.drift.three_phase_pair`)
    swaps the tenants' working-set sizes at every phase boundary, so the best
    static split is wrong in every phase.  The replay engine runs static,
    adaptive (windowed-SHARDS profiles + phase detector + move-cost-gated
    controller) and oracle-per-phase partitioning through one event loop and
    reports the per-epoch miss-ratio series plus the adaptation scoreboard.
    The benchmark harness asserts the headline claim on the same code path:
    adaptive strictly beats static while profiling at most twice the
    references a single whole-trace exact profile would touch.  ``knobs``
    are further :class:`~repro.online.replay.OnlineJob` fields (``method``,
    ``move_cost``, ...).
    """
    from ..online.replay import OnlineJob, run_replay
    from ..trace.drift import three_phase_pair

    workload = three_phase_pair(length_per_phase, seed=rng)
    job = OnlineJob(
        budget=budget, window=window, epoch=epoch, rate=rate, profile_seed=rng, name="online-adaptation", **knobs
    )
    result = run_replay(workload, job)
    return {
        "accesses": result.accesses,
        "budget": result.budget,
        "tenants": list(result.tenants),
        "boundaries": list(workload.boundaries),
        "rows": result.rows(),
        "summary": result.summary(),
        "static_allocation": list(result.static_allocation),
        "final_allocation": list(result.final_allocation),
    }


def run_policy_sweep(
    length: int = 60_000,
    footprint: int = 4096,
    *,
    exponent: float = 0.9,
    capacities: Sequence[int] | None = None,
    ways: int = 4,
    workers: int = 1,
    rng: int = 7,
) -> dict:
    """Policy × capacity miss-ratio matrix of a Zipfian trace via the sweep engine.

    All four policies are evaluated over a power-of-two capacity grid
    (multiples of ``ways`` so the set-associative policy realises every
    point) in a handful of trace passes.  Returns one row per capacity with a
    miss-ratio column per policy, plus the per-policy kernel seconds —
    the multi-scenario comparison that naive per-configuration replay makes
    quadratically expensive.
    """
    from ..sim.sweep import SweepJob, run_sweep
    from ..trace.generators import zipfian_trace

    trace = zipfian_trace(length, footprint, exponent=exponent, rng=rng).accesses
    if capacities is None:
        grid = []
        size = ways
        while size <= footprint:
            grid.append(size)
            size *= 2
        capacities = grid
    job = SweepJob(
        trace=trace,
        name=f"zipf(s={exponent})",
        policies=("lru", "fifo", "random", "set-associative"),
        capacities=tuple(int(c) for c in capacities),
        ways=ways,
        seed=int(rng),
    )
    result = run_sweep(job, workers=workers)

    columns = {sweep.policy: dict(zip(sweep.capacities, sweep.miss_ratios)) for sweep in result.sweeps}
    rows = []
    for capacity in result["lru"].capacities:
        row = {"capacity": capacity}
        for policy in job.policies:
            key = policy.replace("-", "_")
            value = columns.get(policy, {}).get(capacity)
            row[key] = float(value) if value is not None else None
        rows.append(row)
    return {
        "length": length,
        "footprint": footprint,
        "exponent": exponent,
        "ways": ways,
        "rows": rows,
        "kernel_seconds": {sweep.policy: sweep.seconds for sweep in result.sweeps},
    }


def run_ml_schedule(
    items: int = 256,
    passes: int = 6,
    *,
    cache_fractions: Sequence[float] = (0.25, 0.5, 0.75),
    hierarchy_levels: Sequence[int] | None = None,
) -> dict:
    """Theorem-4 alternation vs. naive cyclic traversal of a model's parameters.

    ``items`` is the number of parameter blocks (e.g. an MLP's weight blocks);
    the three schedules of :func:`repro.ml.schedule.build_schedule` are
    evaluated and their total reuse and miss ratios at the requested cache
    fractions reported.
    """
    if hierarchy_levels is None:
        hierarchy_levels = [max(items // 16, 1), max(items // 4, 2)]
    results = compare_schedules(items, passes, hierarchy_levels=hierarchy_levels, max_cache_size=items)
    rows = []
    for name, evaluation in results.items():
        row = {
            "schedule": name,
            "total_reuse": evaluation.total_reuse,
            "mean_stack_distance": evaluation.mean_stack_distance,
            "amat": evaluation.amat,
        }
        for fraction in cache_fractions:
            cache = max(1, int(round(fraction * items)))
            row[f"miss_ratio@{fraction:.2f}m"] = evaluation.miss_ratio(cache)
        rows.append(row)
    return {"items": items, "passes": passes, "rows": rows}
