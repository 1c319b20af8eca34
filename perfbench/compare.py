"""Compare two sets of benchmark runs, parent against change, per workload and end-to-end metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one record per run, as ``run.py --record`` appends them;
traced runs are skipped.  For every workload it prints the share of failed
runs on each side (``error_rate``) and, for every end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles over its correct runs,
the share of paired runs the change won and a verdict: ``better``,
``no worse``, ``worse`` or ``unresolved``.  Runs pair by seed and, for
repeats of one seed, by their order in each file.  Exits 1 when any verdict
is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = BENCH.parent / "BENCHMARK.json"
PLAN = BENCH / "plan.json"
#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """``{workload: [record, ...]}`` of the untraced runs in one JSON-lines file, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def pair(old_runs: list[dict], new_runs: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of equal seed, the k-th parent run of a seed with the k-th change run of it."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in new_runs:
        by_seed[int(record["seed"])].append(record)
    taken: dict[int, int] = defaultdict(int)
    pairs = []
    for record in old_runs:
        seed = int(record["seed"])
        if taken[seed] < len(by_seed[seed]):
            pairs.append((record, by_seed[seed][taken[seed]]))
            taken[seed] += 1
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(parent, change, pairs, *, lower: bool, bound: float, exact: bool) -> tuple[str, float]:
    """``(verdict, share of pairs won)`` for one metric; ties count for neither side.

    A gain needs at least :data:`MIN_PAIRS` pairs, :data:`WIN_SHARE` of
    them won and, for a measured metric, medians that differ by more than
    the parent's quartile spread.  A measured metric whose parent spread is
    wider than ``bound`` (a share of the parent's median) is unresolved
    unless every change run beats every parent run.  It is worse when the
    change's median is worse than the parent's by more than ``bound``.

    An ``exact`` metric repeats exactly for a seed, so the spread across
    seeds is not noise: it is judged by the median of its paired relative
    changes, worse when that is worse by more than ``bound``.
    """
    sign = 1.0 if lower else -1.0

    def gain(old: float, new: float) -> float:  # positive: the change is better
        return sign * (old - new)

    share = sum(gain(old, new) > 0 for old, new in pairs) / len(pairs) if pairs else 0.0
    won = len(pairs) >= MIN_PAIRS and share >= WIN_SHARE
    if exact:
        if not pairs:
            return "unresolved", share
        change = statistics.median(gain(old, new) / abs(old) if old else gain(old, new) for old, new in pairs)
        if won:
            return "better", share
        return ("worse" if -change > bound else "no worse"), share
    first, parent_median, third = quartiles(parent)
    change_median = statistics.median(change)
    spread = third - first
    if won and gain(parent_median, change_median) > spread:
        return "better", share
    if spread > bound * abs(parent_median):
        every = all(gain(old, new) > 0 for old in parent for new in change)
        return ("no worse" if every else "unresolved"), share
    if -gain(parent_median, change_median) > bound * abs(parent_median):
        return "worse", share
    return "no worse", share


def compare(parent_runs, change_runs, spec: dict, exact: set[str]) -> list[dict]:
    """Rows per workload present on both sides: its ``error_rate``, then each end-to-end metric."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        old_runs, new_runs = parent_runs.get(name, []), change_runs.get(name, [])
        if not old_runs or not new_runs:
            continue
        rates = []
        for runs in (old_runs, new_runs):
            failed = sum(run["result"]["failed"] for run in runs)
            attempted = sum(run["result"]["attempted"] for run in runs)
            rates.append(failed / attempted)
        rows.append(
            {
                "workload": name,
                "metric": "error_rate",
                "unit": "ratio",
                "parent": (rates[0],) * 3,
                "change": (rates[1],) * 3,
                "runs": (len(old_runs), len(new_runs)),
                "won": 0.0,
                "verdict": "worse" if rates[1] > rates[0] else "no worse",
            }
        )
        # Only runs whose outputs checked out carry metrics worth comparing.
        old_runs = [run for run in old_runs if run["result"]["correct"]]
        new_runs = [run for run in new_runs if run["result"]["correct"]]
        pairs = pair(old_runs, new_runs)
        for metric in spec["end_to_end"]:
            key = metric["name"]

            def value(run, key=key):
                return run["result"]["metrics"][key]["value"]

            parent = [value(run) for run in old_runs]
            change = [value(run) for run in new_runs]
            if not parent or not change:
                outcome, share = ("worse" if not change else "unresolved"), 0.0
                parent, change = parent or [float("nan")], change or [float("nan")]
            else:
                outcome, share = verdict(
                    parent,
                    change,
                    [(value(old), value(new)) for old, new in pairs],
                    lower=metric["better"] == "lower",
                    bound=metric["bound"],
                    exact=key in exact,
                )
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "parent": quartiles(parent),
                    "change": quartiles(change),
                    "runs": (len(parent), len(change)),
                    "won": share,
                    "verdict": outcome,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="runs of the parent commit (JSON lines)")
    parser.add_argument("change", type=Path, help="runs of the change (JSON lines)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    exact = set(json.loads(PLAN.read_text(encoding="utf-8"))["exact_metrics"])
    rows = compare(load(args.parent), load(args.change), spec, exact)
    print(f"{'workload':<18} {'metric':<11} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} won  verdict")
    for row in rows:
        old, new = row["parent"], row["change"]
        print(
            f"{row['workload']:<18} {row['metric']:<11} "
            f"{old[1]:>12.6g} [{old[0]:.6g}, {old[2]:.6g}] {new[1]:>12.6g} [{new[0]:.6g}, {new[2]:.6g}] "
            f"{100 * row['won']:>3.0f}% {row['verdict']}  ({row['runs'][0]} vs {row['runs'][1]} runs, {row['unit']})"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
