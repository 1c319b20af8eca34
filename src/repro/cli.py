"""Command-line interface.

Installed as ``python -m repro`` (or the ``repro`` console script); ten
subcommands cover the common workflows:

``analyze``
    Reuse statistics, locality score and sampled miss ratios of a trace file.
``mrc``
    Full LRU miss-ratio curve of a trace file, printed or written to CSV.
``profile``
    Exact or *approximate* miss-ratio curve of one or more trace files via
    the :mod:`repro.profiling` engine: ``--mode exact`` replays the exact
    pipeline, ``--mode shards`` samples spatially at ``--rate`` (or with a
    fixed item budget ``--smax``), ``--mode reuse`` streams a one-pass
    reuse-time profile through the AET model.  ``--workers`` fans a batch of
    traces across processes, and ``--compare-exact`` reports the error and
    speedup against the exact curve.
``sweep``
    Evaluate many cache configurations over one trace via the
    :mod:`repro.sim` policy-sweep engine: ``--policies`` crossed with a
    ``--capacities`` grid in one (or few) passes — the whole LRU grid from a
    single stack-distance pass, FIFO/random one lane per capacity, set-associative
    fanned per capacity — with ``--workers`` spreading kernel tasks across
    processes without changing any result.  ``--checkpoint DIR`` memoizes
    finished tasks to disk and ``--resume`` continues an interrupted sweep.
``partition``
    Divide a shared cache among co-running tenants via the
    :mod:`repro.alloc` optimizer: ``--tenants`` names the workloads (inline
    generator specs or trace files), per-tenant miss-ratio curves are
    profiled (``--mode exact|shards|reuse``, fanned across ``--workers``),
    ``--method greedy|dp|hull`` allocates the ``--budget``, and the shared
    cache is simulated both partitioned and unpartitioned to report the
    predicted vs. simulated miss ratios and the partitioning win.
``online``
    Replay a seeded drifting multi-tenant workload through the
    :mod:`repro.online` adaptive re-partitioning engine: windowed/decayed
    SHARDS profiles (``--window``, ``--decay``, ``--rate``) refreshed every
    ``--epoch`` events, phase-change detection, and move-cost-gated
    re-allocation (``--method``, ``--move-cost``), reporting the per-epoch
    miss-ratio series of static vs. adaptive vs. oracle-per-phase
    partitioning.  ``--checkpoint DIR`` snapshots the replay state at epoch
    boundaries and ``--resume`` continues a killed replay bit-identically.
``chain``
    Run ChainFind on ``S_m`` with a chosen labeling and print the tie
    statistics (the Figure 2 measurement for a single size).
``experiment``
    Re-run one of the paper-reproduction experiment drivers and print its
    table (the same code paths the benchmark harness asserts against).
``generate``
    Write a synthetic trace file (re-traversals, STREAM, Zipfian) for use with
    ``analyze``/``mrc``/``profile`` or external tools.
``metrics``
    Summarize a metrics JSONL file (written by ``--metrics`` on the
    ``profile``/``sweep``/``partition``/``online`` subcommands, or by the
    benchmark suite's perf trajectory) into a scoreboard; ``--baseline``
    additionally compares recorded perf metrics against a committed baseline
    and warns on >30% regressions.

The four engine subcommands accept ``--metrics PATH``: the run records
counters, span timings, histograms and per-epoch series into a
:class:`repro.obs.MetricsRegistry` and exports them (with a
:class:`repro.obs.RunManifest` provenance line) as JSON Lines.  Metrics
never change any result — rows, summaries and allocations are bit-identical
with metrics on or off.

Examples
--------
::

    python -m repro generate sawtooth --items 64 --output saw.trace
    python -m repro analyze saw.trace
    python -m repro mrc saw.trace --csv saw_mrc.csv
    python -m repro generate zipf --length 1000000 --items 65536 -o big.trace
    python -m repro profile big.trace --mode shards --rate 0.01
    python -m repro profile big.trace --mode reuse --csv big_mrc.csv
    python -m repro sweep big.trace --policies lru,fifo,random --capacities pow2
    python -m repro sweep big.trace --policies lru --capacities 64:4096:64 --csv sweep.csv
    python -m repro partition --tenants zipf,sawtooth:items=4000,stream:n=2000 --budget 2048 --method hull
    python -m repro online --length 6000 --budget 1150 --window 6000 --epoch 2000 --rate 0.5
    python -m repro chain 8 --labeling miss-ratio
    python -m repro experiment fig1
    python -m repro experiment sampling
    python -m repro online --length 6000 --budget 1150 --window 6000 --epoch 2000 --metrics m/online.jsonl
    python -m repro metrics m/online.jsonl
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .trace.io import read_text
    from .trace.stats import locality_score, summarize_with_distances

    try:
        trace = read_text(args.trace_file)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats, distances = summarize_with_distances(trace)
    print(format_table([stats.__dict__], title=f"Trace statistics — {trace.name}"))
    print(f"locality score (0 = cyclic, 1 = sawtooth): {locality_score(stats):.4f}")
    samples = sorted({max(1, trace.footprint // 8), max(1, trace.footprint // 2), trace.footprint})
    rows = [{"cache_size": c, "miss_ratio": 1.0 - int((distances <= c).sum()) / stats.accesses} for c in samples]
    print(format_table(rows, title="LRU miss ratio at sampled cache sizes"))
    return 0


def _cmd_mrc(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table, write_csv
    from .cache.mrc import mrc_from_trace
    from .trace.io import read_text

    try:
        trace = read_text(args.trace_file)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    curve = mrc_from_trace(trace.accesses, max_cache_size=args.max_size)
    rows = [{"cache_size": c + 1, "miss_ratio": ratio} for c, ratio in enumerate(curve.ratios.tolist())]
    if args.csv:
        path = write_csv(args.csv, rows)
        print(f"wrote {len(rows)} rows to {path}")
    else:
        print(format_table(rows, title=f"Miss-ratio curve — {trace.name}"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import api
    from .analysis.reporting import format_table
    from .cache.mrc import mrc_from_trace
    from .obs import span
    from .profiling.accuracy import compare_curves
    from .profiling.engine import ProfileJob
    from .trace.io import read_text

    if args.csv and len(args.trace_files) != 1:
        print("--csv requires exactly one trace file", file=sys.stderr)
        return 2

    # Without --compare-exact each worker loads its own file; only the exact
    # comparison needs the access arrays in this process.  A worker's
    # ValueError (a trace line read_text cannot use) reaches this process
    # unchanged.
    jobs = []
    try:
        common = _knobs(args)
        for path in args.trace_files:
            if args.compare_exact:
                trace = read_text(path)
                jobs.append(ProfileJob(trace=trace.accesses, name=trace.name, **common))
            else:
                jobs.append(ProfileJob(path=str(path), name=Path(path).stem, **common))
        results = api.profile(jobs, workers=args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rows = []
    for job, result in zip(jobs, results):
        row = {
            "trace": result.name,
            "mode": result.mode,
            "accesses": result.accesses,
            "curve_points": result.curve.max_cache_size,
            "seconds": round(result.seconds, 4),
        }
        if args.compare_exact:
            with span("profiling.compare_exact") as timer:
                exact = mrc_from_trace(job.trace, max_cache_size=args.max_cache_size)
            comparison = compare_curves(result.curve, exact)
            row["exact_seconds"] = round(timer.seconds, 4)
            row["speedup"] = round(timer.seconds / max(result.seconds, 1e-9), 1)
            row["mae"] = round(comparison.mean_absolute_error, 5)
            row["max_error"] = round(comparison.max_absolute_error, 5)
        rows.append(row)
    print(format_table(rows, title=f"profile --mode {args.mode}"))

    if args.csv:
        path, written = api.export_csv(results[0], args.csv)
        print(f"wrote {written} rows to {path}")
    return 0


def parse_capacities(spec: str, footprint: int) -> tuple[int, ...]:
    """Parse a ``--capacities`` grid specification.

    The spec is a comma-separated list of elements, each one of:

    * an integer — that single capacity;
    * ``lo:hi`` or ``lo:hi:step`` — an inclusive arithmetic range;
    * ``pow2`` — every power of two up to the trace footprint.

    The union is deduplicated and sorted.
    """
    capacities: set[int] = set()
    for element in spec.split(","):
        element = element.strip()
        if not element:
            continue
        if element == "pow2":
            size = 1
            while size <= max(footprint, 1):
                capacities.add(size)
                size *= 2
        elif ":" in element:
            parts = element.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(f"bad capacity range {element!r}; expected lo:hi or lo:hi:step")
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if step < 1:
                raise ValueError(f"capacity range step must be >= 1, got {step}")
            capacities.update(range(lo, hi + 1, step))
        else:
            capacities.add(int(element))
    if not capacities:
        raise ValueError(f"capacity spec {spec!r} produced an empty grid")
    return tuple(sorted(capacities))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import api
    from .analysis.reporting import format_table
    from .resilience.errors import CheckpointError
    from .trace.io import read_text

    try:
        trace = read_text(args.trace_file)
        result = api.sweep(
            trace.accesses,
            name=trace.name,
            policies=tuple(p.strip() for p in args.policies.split(",") if p.strip()),
            capacities=parse_capacities(args.capacities, trace.footprint),
            workers=args.workers,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            **_knobs(args),
        )
    except (ValueError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rows = result.rows()
    if args.csv:
        path, written = api.export_csv(result, args.csv)
        print(f"wrote {written} rows to {path}")
    else:
        print(
            format_table(
                rows,
                title=f"policy sweep — {result.name} ({result.accesses} accesses, {result.footprint} items)",
            )
        )
    timing = [
        {"policy": sweep.policy, "capacities": len(sweep.capacities), "kernel_seconds": round(sweep.seconds, 4)}
        for sweep in result.sweeps
    ]
    print(format_table(timing, title="kernel compute time per policy"))
    return 0


#: Tenant generator kinds understood by ``--tenants`` and their defaults.
TENANT_KINDS = {
    "zipf": {"length": 30000, "items": 4096, "exponent": 0.9, "seed": 7},
    "sawtooth": {"items": 2048},
    "cyclic": {"items": 2048},
    "stream": {"n": 1024, "repetitions": 2},
    "random": {"length": 20000, "items": 2048, "seed": 7},
    "file": {"path": None},
}


def _synthetic_trace(kind: str, options: dict):
    """Build one synthetic trace (the single dispatch shared by ``generate`` and ``--tenants``)."""
    from .trace.generators import random_retraversal, random_trace, zipfian_trace
    from .trace.trace import PeriodicTrace
    from .trace.workloads import stream_copy

    if kind == "cyclic":
        return PeriodicTrace.cyclic(options["items"]).to_trace()
    if kind == "sawtooth":
        return PeriodicTrace.sawtooth(options["items"]).to_trace()
    if kind == "random-retraversal":
        return random_retraversal(options["items"], options["seed"]).to_trace()
    if kind == "zipf":
        return zipfian_trace(options["length"], options["items"], exponent=options["exponent"], rng=options["seed"])
    if kind == "stream":
        return stream_copy(options["n"], repetitions=options["repetitions"])
    if kind == "random":
        return random_trace(options["length"], options["items"], rng=options["seed"])
    raise ValueError(f"unknown trace kind {kind!r}")


def parse_tenants(spec: str) -> list:
    """Parse a ``--tenants`` specification into :class:`~repro.trace.TenantSpec` list.

    The spec is a comma-separated list of tenants, each
    ``kind[:key=value[:key=value...]]`` with kinds ``zipf`` (length, items,
    exponent, seed), ``sawtooth``/``cyclic`` (items), ``stream`` (n,
    repetitions), ``random`` (length, items, seed) and ``file`` (path).  Every
    kind also accepts ``rate`` (interleaving weight, default 1.0) and ``name``
    (defaults to the kind; :func:`repro.trace.compose_tenants` suffixes
    repeated names with the tenant index).
    """
    from pathlib import Path

    from .trace.tenancy import TenantSpec

    tenants = []
    for element in (part for part in spec.split(",") if part.strip()):
        fields = element.strip().split(":")
        kind = fields[0].strip()
        if kind not in TENANT_KINDS:
            raise ValueError(f"unknown tenant kind {kind!r}; choose from {sorted(TENANT_KINDS)}")
        options = dict(TENANT_KINDS[kind])
        options.update({"rate": 1.0, "name": None})
        for field in fields[1:]:
            if "=" not in field:
                raise ValueError(f"bad tenant option {field!r} in {element!r}; expected key=value")
            key, value = field.split("=", 1)
            key = key.strip()
            if key not in options:
                raise ValueError(f"unknown option {key!r} for tenant kind {kind!r}")
            default = options[key]
            if key in ("name", "path"):
                options[key] = value
            elif isinstance(default, float):
                options[key] = float(value)
            else:
                options[key] = int(value)
        rate, name = options.pop("rate"), options.pop("name")
        if kind == "file":
            if not options["path"]:
                raise ValueError("tenant kind 'file' requires a path= option")
            from .trace.io import read_text

            trace = read_text(Path(options["path"]))
        else:
            trace = _synthetic_trace(kind, options)
        tenants.append(TenantSpec(trace, name=name or kind, rate=rate))
    if not tenants:
        raise ValueError(f"tenant spec {spec!r} produced no tenants")
    return tenants


def _cmd_partition(args: argparse.Namespace) -> int:
    from . import api
    from .analysis.reporting import format_table

    try:
        result = api.partition(parse_tenants(args.tenants), args.budget, workers=args.workers, **_knobs(args))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    tenant_rows = result.rows()
    summary = result.summary()
    if args.csv:
        path, written = api.export_csv(result, args.csv)
        print(f"wrote {written} rows to {path}")
    else:
        print(
            format_table(
                tenant_rows,
                title=f"partition --method {result.method} — {result.accesses} accesses, budget {result.budget}",
            )
        )
    print(
        format_table(
            [
                {
                    "predicted": summary["predicted"],
                    "simulated": summary["simulated"],
                    "error": summary["error"],
                    "unpartitioned": summary["unpartitioned"],
                    "proportional": summary["proportional"],
                    "win_vs_unpartitioned": summary["win_vs_unpartitioned"],
                    "win_vs_proportional": summary["win_vs_proportional"],
                    "profile_seconds": round(result.profile_seconds, 4),
                }
            ],
            title="shared-cache miss ratios (partitioned vs unpartitioned)",
        )
    )
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from . import api
    from .analysis.reporting import format_table
    from .resilience.errors import CheckpointError

    try:
        result = api.online(
            args.workload,
            args.budget,
            args.window,
            args.epoch,
            length=args.length,
            seed=args.seed,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            **_knobs(args),
        )
    except (ValueError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rows = result.rows()
    summary = result.summary()
    if args.csv:
        path, written = api.export_csv(result, args.csv)
        print(f"wrote {written} rows to {path}")
    else:
        print(
            format_table(
                rows,
                title=(
                    f"online --method {args.method} — {result.accesses} accesses, "
                    f"budget {result.budget}, tenants {'/'.join(result.tenants)}"
                ),
            )
        )
    print(
        format_table(
            [
                {
                    "static": summary["static"],
                    "adaptive": summary["adaptive"],
                    "oracle": summary["oracle"],
                    "win_vs_static": summary["win_vs_static"],
                    "regret_vs_oracle": summary["regret_vs_oracle"],
                    "reallocations": summary["reallocations"],
                    "phase_changes": summary["phase_changes"],
                    "profiled_references": summary["profiled_references"],
                }
            ],
            title="overall miss ratios (static vs adaptive vs oracle-per-phase)",
        )
    )
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .core.chainfind import chain_find
    from .core.labelings import MissRatioLabeling, RankedMissRatioLabeling, TransposedLabeling
    from .core.permutation import Permutation
    from .core.timescale import DataMovementLabeling, TimescaleLabeling

    m = args.m
    labelings = {
        "miss-ratio": MissRatioLabeling(),
        "ranked": RankedMissRatioLabeling(
            Permutation([m - 2] + list(range(m - 2)) + [m - 1]) if m >= 2 else Permutation.identity(m)
        ),
        "transposition": TransposedLabeling(),
        "timescale": TimescaleLabeling(),
        "data-movement": DataMovementLabeling(),
    }
    labeling = labelings[args.labeling]
    result = chain_find(Permutation.identity(m), labeling, moves=args.moves)
    rows = [
        {
            "m": m,
            "labeling": args.labeling,
            "moves": args.moves,
            "chain_length": result.length,
            "arbitrary_choices": result.arbitrary_choice_count,
            "chain_multiplicity": result.chain_multiplicity,
            "reaches_sawtooth": result.end.is_reverse(),
        }
    ]
    print(format_table(rows, title="ChainFind result"))
    if args.show_chain:
        chain_rows = [
            {"step": k, "sigma (1-indexed)": str(sigma.one_indexed()), "inversions": sigma.inversions()}
            for k, sigma in enumerate(result.chain)
        ]
        print(format_table(chain_rows, title="Chain"))
    return 0


_EXPERIMENTS = {
    "fig1": ("run_fig1_mrc_by_inversion", {}),
    "fig2": ("run_fig2_chainfind_ties", {}),
    "s11": ("run_s11_ranked_labeling", {}),
    "sawtooth-cyclic": ("run_sawtooth_cyclic", {}),
    "matrix-reuse": ("run_matrix_reuse", {}),
    "theorem2": ("run_theorem2_random", {}),
    "mahonian": ("run_mahonian_partitions", {}),
    "miss-integral": ("run_miss_integral", {}),
    "policy-ablation": ("run_policy_ablation", {}),
    "policy-sweep": ("run_policy_sweep", {}),
    "feasibility": ("run_feasibility_ablation", {}),
    "ml-schedule": ("run_ml_schedule", {}),
    "sampling": ("run_sampling_ablation", {}),
    "partition": ("run_partition_comparison", {}),
    "online-adaptation": ("run_online_adaptation", {}),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import analysis
    from .analysis.reporting import format_table

    driver_name, kwargs = _EXPERIMENTS[args.name]
    driver = getattr(analysis, driver_name)
    result = driver(**kwargs)

    if isinstance(result, list):
        print(format_table(result, title=f"experiment: {args.name}"))
    elif isinstance(result, dict) and "rows" in result:
        print(format_table(result["rows"], title=f"experiment: {args.name}"))
    elif isinstance(result, dict) and "curves" in result:
        curves = {f"ell={ell}": result["curves"][ell] for ell in result["levels"]}
        rows = [
            {"cache_size": c, **{name: series[i] for name, series in curves.items()}}
            for i, c in enumerate(result["cache_sizes"])
        ]
        print(format_table(rows, title=f"experiment: {args.name}"))
    elif isinstance(result, dict) and "levels" in result:
        print(format_table(result["levels"], title=f"experiment: {args.name}"))
    else:
        print(result)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import compare_to_baseline, load_perf, read_jsonl, summarize_records

    path = Path(args.metrics_file)
    if not path.exists():
        print(f"error: no such metrics file: {path}", file=sys.stderr)
        return 2
    records = read_jsonl(path)
    typed = [r for r in records if "type" in r]
    perf = [r for r in records if "type" not in r and "benchmark" in r]
    if typed:
        print(summarize_records(typed))
    if perf:
        from .analysis.reporting import format_table

        rows = [
            {
                "benchmark": r["benchmark"],
                "metric": r["metric"],
                "value": r["value"],
                "unit": r.get("unit", ""),
                "quick": r.get("quick", False),
            }
            for r in sorted(perf, key=lambda r: (str(r["benchmark"]), str(r["metric"])))
        ]
        print(format_table(rows, title="perf trajectory"))
    if not typed and not perf:
        print("(no records)")

    if args.baseline:
        current = load_perf(path)
        baseline = load_perf(args.baseline)
        if not baseline:
            print(f"warning: no baseline records in {args.baseline}", file=sys.stderr)
        warnings = compare_to_baseline(current, baseline, tolerance=args.tolerance)
        for warning in warnings:
            print(warning)
        if not warnings:
            matched = {r.key() for r in current} & {r.key() for r in baseline}
            print(f"perf trajectory within ±{args.tolerance:.0%} of baseline ({len(matched)} metrics compared)")
        # Warn-only by default (quick-mode numbers are noisy); --strict turns
        # the warnings into a failing exit code for gating CI steps.
        if warnings and args.strict:
            return 1
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .trace.io import write_text

    trace = _synthetic_trace(
        args.kind,
        {
            "items": args.items,
            "n": args.items,  # stream sizes its arrays from --items
            "length": args.length,
            "exponent": args.exponent,
            "repetitions": args.repetitions,
            "seed": args.seed,
        },
    )
    path = write_text(trace, args.output)
    print(f"wrote {len(trace)} accesses over {trace.footprint} items to {path}")
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def _engine_flags(csv_help: str) -> argparse.ArgumentParser:
    """Parent parser carrying the flags every engine subcommand shares.

    One definition keeps the names, types and defaults of ``--csv`` /
    ``--metrics`` aligned across the profile/sweep/partition/online
    subcommands (the per-subcommand help strings stay specific), mirroring
    the unified keyword names of :mod:`repro.api`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--csv", default=None, help=csv_help)
    parent.add_argument("--metrics", default=None, help="record run metrics to this JSONL file")
    return parent


def _workers_flag(help_text: str) -> argparse.ArgumentParser:
    """Parent parser with ``--workers``, for the subcommands that fan work over the process pool."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1, help=help_text)
    return parent


def _checkpoint_flags() -> argparse.ArgumentParser:
    """Parent parser with the crash-safety flags sweep and online share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="snapshot progress into this directory (atomic, checksummed; see repro.resilience)",
    )
    parent.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="snapshot cadence: every N completed epochs (online) or tasks (sweep)",
    )
    parent.add_argument(
        "--resume",
        action="store_true",
        help="continue from the latest snapshot in --checkpoint (bit-identical; a fresh store runs from the start)",
    )
    return parent


def _job_flags(job_type: type) -> argparse.ArgumentParser:
    """Parent parser with one ``--flag`` per :func:`~repro.engine.job.knob` field of ``job_type``.

    Each flag is the knob's own ``flag`` or else ``--`` plus the field name
    with ``-`` for ``_``; its default, type, help text and choices come from
    the field, so the flags cannot drift from the job.  Fields that need
    parsing or are not plain flags (inputs, ``name``, required sizes) are not
    knobs and are written by hand in :func:`build_parser`.  The parser
    records the knob names in ``job_knobs`` for :func:`_knobs`.
    """
    hints = typing.get_type_hints(job_type)
    parent = argparse.ArgumentParser(add_help=False)
    knobs = [field for field in dataclasses.fields(job_type) if "help" in field.metadata]
    parent.set_defaults(job_knobs=tuple(field.name for field in knobs))
    for field in knobs:
        hint = hints[field.name]
        flag_type = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))  # int | None -> int
        parent.add_argument(
            field.metadata["flag"] or "--" + field.name.replace("_", "-"),
            dest=field.name,
            type=flag_type,
            default=field.default,
            choices=field.metadata["choices"],
            help=field.metadata["help"],
        )
    return parent


def _knobs(args: argparse.Namespace) -> dict:
    """The parsed values of the subcommand's job knob flags, keyed by field name."""
    return {name: getattr(args, name) for name in args.job_knobs}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    from .alloc.partition import PartitionJob
    from .api import WORKLOAD_PRESETS
    from .online.replay import OnlineJob
    from .profiling.engine import ProfileJob
    from .sim.sweep import SweepJob

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symmetric locality toolkit: analyse traces, run ChainFind, reproduce the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="summarise a trace file")
    analyze.add_argument("trace_file", help="text trace file (one item label per line)")
    analyze.set_defaults(func=_cmd_analyze)

    mrc = subparsers.add_parser("mrc", help="miss-ratio curve of a trace file")
    mrc.add_argument("trace_file")
    mrc.add_argument("--max-size", type=int, default=None, help="largest cache size to report")
    mrc.add_argument("--csv", default=None, help="write the curve to this CSV file instead of printing")
    mrc.set_defaults(func=_cmd_mrc)

    profile = subparsers.add_parser(
        "profile",
        help="exact or approximate miss-ratio curve via the profiling engine",
        parents=[
            _engine_flags("write the curve to this CSV file (single trace only)"),
            _workers_flag("process pool size for a batch of traces"),
            _job_flags(ProfileJob),
        ],
    )
    profile.add_argument("trace_files", nargs="+", help="text trace file(s)")
    profile.add_argument(
        "--compare-exact",
        action="store_true",
        help="also compute the exact curve and report error and speedup",
    )
    profile.set_defaults(func=_cmd_profile)

    sweep = subparsers.add_parser(
        "sweep",
        help="miss ratios of many policies x capacities via the sweep engine",
        parents=[
            _engine_flags("write the sweep rows to this CSV file"),
            _workers_flag("process pool size (never changes the results)"),
            _checkpoint_flags(),
            _job_flags(SweepJob),
        ],
    )
    sweep.add_argument("trace_file", help="text trace file (one item label per line)")
    sweep.add_argument(
        "--policies",
        default="lru,fifo",
        help="comma-separated replacement policies: lru, fifo, random, set-associative",
    )
    sweep.add_argument(
        "--capacities",
        default="pow2",
        help="capacity grid: comma list of ints, lo:hi[:step] ranges, or pow2 (default)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    partition = subparsers.add_parser(
        "partition",
        help="divide a shared cache among tenants via MRC allocation",
        parents=[
            _engine_flags("write per-tenant rows plus a TOTAL row to this CSV file"),
            _workers_flag("process pool size for per-tenant profiling"),
            _job_flags(PartitionJob),
        ],
    )
    partition.add_argument(
        "--tenants",
        required=True,
        help=(
            "comma-separated tenant specs kind[:key=value...]; kinds: zipf, sawtooth, "
            "cyclic, stream, random, file (every kind also takes rate= and name=)"
        ),
    )
    partition.add_argument("--budget", type=int, required=True, help="shared cache capacity in blocks")
    partition.set_defaults(func=_cmd_partition)

    online = subparsers.add_parser(
        "online",
        help="adaptive re-partitioning on a drifting multi-tenant workload",
        parents=[
            _engine_flags("write per-epoch rows plus a TOTAL row to this CSV file"),
            _checkpoint_flags(),
            _job_flags(OnlineJob),
        ],
    )
    online.add_argument("--seed", type=int, default=7, help="seed of the drifting workload")
    online.add_argument(
        "--workload",
        choices=WORKLOAD_PRESETS,
        default=WORKLOAD_PRESETS[0],
        help="drifting workload preset: 3-phase working-set seesaw, or tenant arrival/departure churn",
    )
    online.add_argument(
        "--length",
        type=int,
        default=6000,
        help="per-tenant references per phase (a composed phase spans ~2x this with both preset tenants active)",
    )
    online.add_argument("--budget", type=int, required=True, help="shared cache capacity in blocks")
    online.add_argument("--window", type=int, required=True, help="windowed-profiler span in composed events")
    online.add_argument("--epoch", type=int, required=True, help="re-profiling period in composed events")
    online.set_defaults(func=_cmd_online)

    chain = subparsers.add_parser("chain", help="run ChainFind on S_m")
    chain.add_argument("m", type=int, help="number of data items")
    chain.add_argument(
        "--labeling",
        choices=["miss-ratio", "ranked", "transposition", "timescale", "data-movement"],
        default="miss-ratio",
    )
    chain.add_argument("--moves", choices=["bruhat", "weak"], default="bruhat")
    chain.add_argument("--show-chain", action="store_true", help="print every permutation along the chain")
    chain.set_defaults(func=_cmd_chain)

    experiment = subparsers.add_parser("experiment", help="re-run a paper-reproduction experiment")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.set_defaults(func=_cmd_experiment)

    metrics = subparsers.add_parser("metrics", help="summarize a metrics JSONL file into a scoreboard")
    metrics.add_argument("metrics_file", help="JSONL file written by --metrics or the benchmark perf trajectory")
    metrics.add_argument(
        "--baseline",
        default=None,
        help="committed perf baseline (JSON array or JSONL) to compare recorded perf metrics against",
    )
    metrics.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="fractional regression tolerance of the baseline comparison (default 0.30)",
    )
    metrics.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the baseline comparison reports regressions (for CI gating)",
    )
    metrics.set_defaults(func=_cmd_metrics)

    generate = subparsers.add_parser("generate", help="write a synthetic trace file")
    generate.add_argument("kind", choices=["cyclic", "sawtooth", "random-retraversal", "zipf", "stream"])
    generate.add_argument("--items", type=int, default=64, help="number of distinct items")
    generate.add_argument("--length", type=int, default=4096, help="trace length (zipf only)")
    generate.add_argument("--exponent", type=float, default=1.0, help="zipf exponent")
    generate.add_argument("--repetitions", type=int, default=2, help="stream repetitions")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", required=True, help="output trace file")
    generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "metrics", None):
            # Recording never changes a result: the exit code and every
            # printed row are identical to a run without --metrics.
            from pathlib import Path

            from .obs import run_recorded

            argv = sys.argv[1:] if argv is None else argv
            code = run_recorded(lambda: args.func(args), args.metrics, args.command, argv=argv, seed=args.seed)
            print(f"wrote metrics to {Path(args.metrics)}")
            return code
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piping into `head`); exit quietly like
        # other well-behaved unix filters.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
