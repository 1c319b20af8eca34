"""Run one benchmark workload and print its metrics; the last stdout line is a JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-seesaw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15     # every workload, one table

``--trace 0`` times calls with tracing off and reports the end-to-end
metrics.  ``setup_s`` and ``wall_s`` are medians of host seconds scaled to
the reference host speed, which a loop timed between calls measures
(``calibration.py``); the raw host seconds are printed beside them.
``--trace 1`` times untraced calls for half of ``--seconds``, then
wraps the program's layer functions (``layers.py``), times traced calls for
the other half, removes the wrappers, prints the per-layer breakdown and
writes the recorded spans to ``perfbench/out/``.  Every run checks the
program's outputs (``checks.py``).  ``--record FILE`` appends the result to a
JSON-lines file that ``compare.py`` reads.  The exit code is 1 when a call
raised or an output check failed.
"""

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Set-up runs per benchmark run, each in a fresh process; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fewest timed calls per measured phase, however long a call takes.
MIN_CALLS = 3
#: ``(name, unit)`` of the end-to-end metrics.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("refs_per_s", "1/s"), ("peak_mb", "MB"), ("miss_ratio", "ratio"))


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit without a result if it is missing."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {source}; run from the root of a full checkout")
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {source}")


def _call(spec, inputs, workdir: Path, around=contextlib.nullcontext):
    """One call of the workload in a fresh scratch directory: ``(seconds, result or exception)``."""
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    gc.collect()
    try:
        with around():
            start = time.perf_counter()
            try:
                result = spec.call(inputs, scratch)
            except Exception as error:  # a failed call is counted, not fatal
                result = error
            seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return seconds, result


def _repeat(seconds: float, once, speed, calls: int = MIN_CALLS) -> list[tuple[object, float]]:
    """``(outcome, speed factor)`` of ``once()`` called until ``seconds`` have passed, at least ``calls`` times.

    A host-speed reading (``calibration.py``) comes before every call and
    after the last; the factor turns a call's seconds into seconds at the
    reference speed.
    """
    readings = [speed.reading()]
    outcomes = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < calls or time.perf_counter() < deadline:
        outcomes.append(once())
        readings.append(speed.reading())
    return [(outcome, speed.factor(before, after)) for outcome, before, after in zip(outcomes, readings, readings[1:])]


def _peak_mb() -> float:
    """Peak resident memory of this process or its largest child (the pool workers), in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return peak_kb / 1024.0


def _setup_seconds(args, speed) -> float:
    """Median wall time of :data:`SETUP_REPEATS` fresh processes that only set the workload up.

    Each one starts the interpreter, imports the program and builds the
    inputs (``--setup-only``), so ``setup_s`` covers everything from process
    start until the inputs are ready.  Times are at the reference speed.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]

    def once() -> float:
        start = time.perf_counter()
        subprocess.run(command + ["--setup-only"], check=True)
        return time.perf_counter() - start

    return statistics.median(seconds * factor for seconds, factor in _repeat(0.0, once, speed, SETUP_REPEATS))


def set_up_only(args) -> None:
    """Import the program and build the workload's inputs, then discard them."""
    _load_program()
    from perfbench import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT))
    try:
        workloads.WORKLOADS[args.workload].build(args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args) -> dict:
    """Set up, time and check one workload; returns the JSON result."""
    _load_program()
    from perfbench import checks, layers, workloads
    from perfbench.calibration import HostSpeed
    from perfbench.tracer import Tracer
    from repro.obs import MetricsRegistry, recording

    spec = workloads.WORKLOADS[args.workload]
    speed = HostSpeed()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s = None if args.trace else _setup_seconds(args, speed)
        inputs = spec.build(args.seed, workdir)

        # The warm-up call fills lazy imports and caches; its output is the one checked.
        _, reference = _call(spec, inputs, workdir)
        problems = []
        if isinstance(reference, Exception):
            problems.append(f"warm-up call raised {reference!r}")
        expected = None if problems else checks.digest(reference)
        outcomes = [reference]

        def judge(result) -> None:
            outcomes.append(result)
            if expected is not None and not isinstance(result, Exception) and checks.digest(result) != expected:
                problems.append("a repeated call gave a different output")

        measure = args.seconds / 2 if args.trace else args.seconds
        walls, scaled = [], []
        for (seconds, result), factor in _repeat(measure, lambda: _call(spec, inputs, workdir), speed):
            walls.append(seconds)
            scaled.append(seconds * factor)
            judge(result)
        wall_s = statistics.median(scaled)
        # Read before the output check, whose replays hold the benchmark's own memory.
        peak_mb = _peak_mb()
        if not problems:
            try:
                spec.check(inputs, reference)
            except checks.OutputMismatch as mismatch:
                problems.append(f"output check failed: {mismatch}")

        if args.trace:
            tracer = Tracer("repro")
            per_call = []

            def traced_call():
                registry = MetricsRegistry()

                @contextlib.contextmanager
                def around():
                    with recording(registry), tracer.span(layers.ROOT_SPAN):
                        yield

                _, result = _call(spec, inputs, workdir, around)
                per_call.append(layers.call_metrics(tracer.spans, tracer.run, registry.snapshot()))
                tracer.run += 1
                judge(result)

            tracer.install(layers.TARGETS)
            try:
                factors = [factor for _, factor in _repeat(measure, traced_call, speed)]
            finally:
                tracer.uninstall()
            metrics = {name: statistics.median(call[name] for call in per_call) for name in per_call[0]}
            metrics["untraced_wall_s"] = statistics.median(walls)
            # Both sides at the reference speed, so a change of host load between the halves cancels.
            traced = statistics.median(call["traced_wall_s"] * factor for call, factor in zip(per_call, factors))
            metrics["trace_overhead_pct"] = 100.0 * (traced / wall_s - 1.0)
            units = {name: unit for name, unit, _better in layers.PER_LAYER}
            report = {name: (metrics[name], units[name]) for name, _unit, _better in layers.PER_LAYER}
            print("\n".join(layers.format_breakdown(args.workload, metrics, len(per_call))))
            spans = tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "refs_per_s": spec.refs(inputs) / wall_s,
                "peak_mb": peak_mb,
                "miss_ratio": 0.0 if problems else float(spec.miss_ratio(reference)),
            }
            report = {name: (values[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(outcomes) if problems else sum(isinstance(result, Exception) for result in outcomes)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(
        f"{args.workload}  seed {args.seed}  {len(walls)} untraced calls: host seconds median {statistics.median(walls):.4f}, "
        f"fastest {min(walls):.4f}; at the reference speed median {wall_s:.4f}  "
        f"error_rate {failed / len(outcomes):.4f} ({failed}/{len(outcomes)})"
    )
    for name, (value, unit) in report.items():
        print(f"  {name:<30}{value:>16.6g} {unit}")
    return {
        "correct": not problems and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }


def run_all(args) -> dict:
    """Run every workload in its own process; returns a combined result with ``<workload>.<metric>`` keys."""
    _load_program()
    from perfbench import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            command += ["--record", str(args.record)]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode} and no result") from None
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long to time calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", type=Path, help="append the result to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        set_up_only(args)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        if args.record:
            record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
            with args.record.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
