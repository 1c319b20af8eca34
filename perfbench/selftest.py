"""Tests of the benchmark itself: seeded inputs, output checks, span arithmetic, verdicts.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The file name keeps it out of the repository's ``pytest`` collection.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import types
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibration, checks, compare, layers, workloads  # noqa: E402
from perfbench.calibration import HostSpeed  # noqa: E402
from perfbench.tracer import Span, Target, Tracer, layer_seconds, outer_counts, self_seconds  # noqa: E402
from repro import api  # noqa: E402
from repro.trace.drift import DriftingWorkload  # noqa: E402
from repro.trace.tenancy import TenantSpec  # noqa: E402


def _arrays(inputs: dict) -> list[np.ndarray]:
    """Every generated input of one workload as arrays, in key order."""
    parts = []
    for key in sorted(inputs):
        value = inputs[key]
        if isinstance(value, DriftingWorkload):
            parts += [value.composed.trace.accesses, value.composed.tenant_ids, np.asarray(value.boundaries)]
        elif isinstance(value, tuple):
            parts += [spec.accesses for spec in value]
        elif isinstance(value, Path):
            parts.append(np.frombuffer(value.read_bytes(), dtype=np.uint8))
        else:
            parts.append(np.asarray(value))
    return parts


def _same(first: list[np.ndarray], second: list[np.ndarray]) -> bool:
    return len(first) == len(second) and all(np.array_equal(a, b) for a, b in zip(first, second))


class SeededInputs(unittest.TestCase):
    def test_a_seed_fixes_every_input(self):
        for name, spec in workloads.WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
                first = _arrays(spec.build(5, Path(one)))
                self.assertTrue(_same(first, _arrays(spec.build(5, Path(two)))))
                self.assertFalse(_same(first, _arrays(spec.build(6, Path(two)))))


def _small_online():
    rng = np.random.default_rng(3)
    sizes = ((300, 80, 300, 80), (80, 300, 80, 300))
    streams = [[phase * 1000 + workloads.zipf_stream(rng, 3000, size, 0.6) for phase, size in enumerate(row)] for row in sizes]
    workload = workloads.compose_phased(streams, ("a", "b"), rng, "small")
    result = api.online(workload, budget=380, window=2000, epoch=1000, method="hull", rate=1.0)
    composed = workload.composed
    return result, composed.trace.accesses, composed.tenant_ids


class OutputChecks(unittest.TestCase):
    """Each check passes the program's result and rejects a corrupted copy."""

    def assertRejects(self, check, corrupted):
        with self.assertRaises(checks.OutputMismatch):
            check(corrupted)

    def test_online(self):
        result, items, ids = _small_online()

        def check(candidate):
            checks.check_online(candidate, items, ids, tenants=2, budget=380, unit=1)

        check(result)
        epochs = list(result.epochs)
        starved = list(epochs)
        starved[0] = dataclasses.replace(epochs[0], adaptive_allocation=(380, 0))
        self.assertRejects(check, dataclasses.replace(result, epochs=tuple(starved)))
        self.assertRejects(check, dataclasses.replace(result, static_allocation=(381, 0)))
        first, second = result.static_allocation
        moved = (first - 50, second + 50) if first >= 50 else (first + 50, second - 50)
        self.assertRejects(check, dataclasses.replace(result, static_allocation=moved))
        gap = list(epochs)
        gap[1] = dataclasses.replace(epochs[1], start=epochs[1].start + 1)
        self.assertRejects(check, dataclasses.replace(result, epochs=tuple(gap)))
        self.assertRejects(check, dataclasses.replace(result, adaptive_miss_ratio=result.adaptive_miss_ratio + 1e-6))

    def test_sweep(self):
        trace = workloads.zipf_stream(np.random.default_rng(4), 6000, 2000, 0.8)
        capacities = (16, 64, 256, 1024)
        result = api.sweep(trace, policies=("lru", "fifo"), capacities=capacities)

        def check(candidate):
            checks.check_sweep(candidate, trace, ("lru", "fifo"), capacities)

        check(result)
        for policy in ("lru", "fifo"):
            sweep = result[policy]
            flipped = (sweep.hits[0] + 1,) + sweep.hits[1:]
            others = tuple(other for other in result.sweeps if other.policy != policy)
            broken = dataclasses.replace(result, sweeps=(dataclasses.replace(sweep, hits=flipped),) + others)
            with self.subTest(policy=policy):
                self.assertRejects(check, broken)

    def test_partition(self):
        rng = np.random.default_rng(5)
        streams = [workloads.zipf_stream(rng, 4000, 800, 0.8), np.tile(np.arange(300, dtype=np.int64), 10)]
        tenants = tuple(TenantSpec(stream, name=f"t{index}") for index, stream in enumerate(streams))
        result = api.partition(tenants, budget=512, method="hull")

        def check(candidate):
            checks.check_partition(candidate, streams, budget=512, unit=1)

        check(result)
        first, second = result.tenants
        shifted = (dataclasses.replace(first, capacity=first.capacity + 7), dataclasses.replace(second, capacity=second.capacity - 7))
        self.assertRejects(check, dataclasses.replace(result, tenants=shifted))
        over = (dataclasses.replace(first, capacity=first.capacity + 512), second)
        self.assertRejects(check, dataclasses.replace(result, tenants=over))

    def test_replays_agree_with_hand_counts(self):
        stream = [1, 2, 3, 1, 4, 1, 2]
        self.assertEqual(checks.lru_hits(stream, 3), 2)  # the 1 at 3 and the 1 at 5
        self.assertEqual(checks.fifo_hits(stream, 3), 1)  # the 1 at 3; then 4 evicts 1 and 1 evicts 2


class SpanArithmetic(unittest.TestCase):
    def spans(self) -> list[Span]:
        return [
            Span("other.call", 0.0, 10.0, parent=-1),
            Span("a.x", 1.0, 5.0, parent=0, counts={"refs": 8.0}),
            Span("b.y", 2.0, 3.0, parent=1),
            Span("a.x", 6.0, 9.0, parent=0, counts={"refs": 4.0}, remote={"c.z": 2.0}),
            Span("a.x", 6.5, 7.0, parent=3, counts={"refs": 4.0}),
        ]

    def test_self_times_add_up_to_the_root(self):
        totals = self_seconds(self.spans())
        self.assertEqual(totals, {"other.call": 3.0, "a.x": 3.0 + 0.5 + 0.5, "b.y": 1.0, "c.z": 2.0})
        self.assertAlmostEqual(sum(totals.values()), 10.0)
        self.assertEqual(layer_seconds(totals), {"other": 3.0, "a": 4.0, "b": 1.0, "c": 2.0})

    def test_remote_credit_is_capped_by_self_time(self):
        spans = [Span("other.call", 0.0, 4.0), Span("engine.runner", 1.0, 2.0, parent=0, remote={"sim.lru": 3.0})]
        totals = self_seconds(spans)
        self.assertEqual(totals, {"other.call": 3.0, "sim.lru": 1.0, "engine.runner": 0.0})

    def test_runs_are_separate(self):
        spans = self.spans() + [Span("other.call", 20.0, 21.0, run=1)]
        self.assertEqual(self_seconds(spans, run=1), {"other.call": 1.0})
        self.assertEqual(self_seconds(spans, run=0)["other.call"], 3.0)

    def test_nested_counts_are_counted_once(self):
        self.assertEqual(outer_counts(self.spans()), {"a.x:refs": 12.0})

    def test_pool_wait_follows_the_workers_schedule(self):
        self.assertEqual(layers.makespan([3.0, 1.0, 2.0], 2), 3.0)
        self.assertEqual(layers.makespan([3.0, 1.0, 2.0], 1), 6.0)

    def test_a_host_twice_as_slow_reads_the_same(self):
        calm, loaded = calibration.REFERENCE_S, 2 * calibration.REFERENCE_S
        self.assertEqual(1.5 * HostSpeed.factor(calm, calm), 1.5)
        self.assertEqual(3.0 * HostSpeed.factor(loaded, loaded), 1.5)
        self.assertAlmostEqual(2.0 * HostSpeed.factor(calm, 3 * calm), 1.0)  # the readings around a call average


class TracerWrapping(unittest.TestCase):
    def test_install_records_spans_and_uninstall_restores(self):
        package = types.ModuleType("fakepkg")
        module = types.ModuleType("fakepkg.mod")
        exec("def inner(n):\n    return n + 1\n\ndef outer(n):\n    return inner(n) * 2\n", module.__dict__)
        alias = types.ModuleType("fakepkg.alias")
        alias.inner = module.inner
        sys.modules.update({"fakepkg": package, "fakepkg.mod": module, "fakepkg.alias": alias})
        original = module.inner
        try:
            tracer = Tracer("fakepkg")
            tracer.install([Target("fakepkg.mod:outer", "a.outer"), Target("fakepkg.mod:inner", "b.inner")])
            self.assertIsNot(alias.inner, original)
            with tracer.span("other.call"):
                self.assertEqual(module.outer(1), 4)
            tracer.uninstall()
            self.assertIs(module.inner, original)
            self.assertIs(alias.inner, original)
            self.assertEqual([(span.name, span.parent) for span in tracer.spans], [("other.call", -1), ("a.outer", 0), ("b.inner", 1)])
        finally:
            for name in ("fakepkg", "fakepkg.mod", "fakepkg.alias"):
                sys.modules.pop(name, None)


def _record(seed: int, value: float, *, correct: bool = True, failed: int = 0) -> dict:
    metrics = {"wall_s": {"value": value, "unit": "s"}, "miss_ratio": {"value": value, "unit": "ratio"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"workload": "w", "seed": seed, "trace": 0, "result": result}


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "miss_ratio", "unit": "ratio", "better": "lower", "bound": 0.1},
    ],
}


def _verdicts(parent: list[dict], change: list[dict]) -> dict[str, tuple[str, float]]:
    rows = compare.compare({"w": parent}, {"w": change}, SPEC, {"miss_ratio"})
    return {row["metric"]: (row["verdict"], row["won"]) for row in rows}


class Verdicts(unittest.TestCase):
    def test_repeats_of_one_seed_all_pair(self):
        parent = [_record(1, 1.0 + 0.001 * k) for k in range(10)]
        change = [_record(1, 0.5 + 0.001 * k) for k in range(10)]
        self.assertEqual(len(compare.pair(parent, change)), 10)
        self.assertEqual(_verdicts(parent, change)["wall_s"], ("better", 1.0))

    def test_a_gain_needs_ten_pairs(self):
        parent = [_record(seed, 1.0 + 0.001 * seed) for seed in range(3)]
        change = [_record(seed, 0.5) for seed in range(3)]
        self.assertEqual(_verdicts(parent, change)["wall_s"][0], "no worse")

    def test_worse_and_unresolved(self):
        steady = [_record(seed, 1.0 + 0.001 * seed) for seed in range(10)]
        self.assertEqual(_verdicts(steady, [_record(s, 1.5) for s in range(10)])["wall_s"][0], "worse")
        noisy = [_record(seed, 1.0 + 0.1 * seed) for seed in range(10)]
        self.assertEqual(_verdicts(noisy, [_record(s, 1.3) for s in range(10)])["wall_s"][0], "unresolved")

    def test_exact_metrics_pair_by_seed(self):
        parent = [_record(seed, 1.0 + seed) for seed in range(10)]  # spread across seeds, exact per seed
        same = _verdicts(parent, [_record(seed, 1.0 + seed) for seed in range(10)])
        self.assertEqual(same["miss_ratio"], ("no worse", 0.0))
        self.assertEqual(same["wall_s"][0], "unresolved")
        worse = _verdicts(parent, [_record(seed, 1.3 * (1.0 + seed)) for seed in range(10)])
        self.assertEqual(worse["miss_ratio"][0], "worse")

    def test_failed_runs_count_against_the_change(self):
        parent = [_record(seed, 1.0) for seed in range(10)]
        change = [_record(seed, 0.1, correct=seed > 0, failed=int(seed == 0)) for seed in range(10)]
        verdicts = _verdicts(parent, change)
        self.assertEqual(verdicts["error_rate"][0], "worse")
        self.assertEqual(verdicts["wall_s"][0], "no worse")  # nine correct pairs: no gain claimed
        broken = [_record(seed, 0.1, correct=False, failed=10) for seed in range(10)]
        self.assertEqual(_verdicts(parent, broken)["miss_ratio"][0], "worse")


if __name__ == "__main__":
    unittest.main()
