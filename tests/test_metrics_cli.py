"""The ``--metrics`` flag, the ``metrics`` subcommand, and output-path handling.

Three contracts of the observability surface:

1. every engine subcommand accepts ``--metrics PATH`` and writes a valid
   JSONL file — manifest first, then typed metric records;
2. recording is purely additive — the printed output and any ``--csv``
   artifact are **bit-identical** with metrics on or off (the engine-level
   twin of this assertion lives in ``tests/test_differential.py``);
3. ``--csv`` and ``--metrics`` targets create missing parent directories
   instead of raising ``FileNotFoundError``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import load_perf, read_jsonl, record_perf

#: Typed record kinds a metrics JSONL line may carry.
_RECORD_TYPES = {"manifest", "counter", "gauge", "histogram", "span", "series"}


def _validate_jsonl(path):
    """Schema-check one metrics file; returns the records."""
    assert path.exists(), f"--metrics did not write {path}"
    records = read_jsonl(path)
    assert records, "metrics file is empty"
    assert records[0]["type"] == "manifest"
    manifest = records[0]
    for key in ("command", "argv", "seed", "git", "python", "numpy", "platform", "timestamp"):
        assert key in manifest
    for record in records[1:]:
        assert record["type"] in _RECORD_TYPES
        assert "name" in record
        if record["type"] == "counter":
            assert record["value"] >= 0
        if record["type"] == "histogram":
            assert len(record["counts"]) == len(record["edges"]) + 1
            assert sum(record["counts"]) == record["count"]
        if record["type"] == "span":
            assert record["count"] >= 1
            assert record["total"] >= 0.0
        if record["type"] == "series":
            assert isinstance(record["row"], dict)
    return records


@pytest.fixture(scope="module")
def zipf_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("metrics_cli") / "zipf.trace"
    assert main(["generate", "zipf", "--length", "8000", "--items", "512", "-o", str(path)]) == 0
    return path


class TestMetricsFlag:
    def test_profile_writes_metrics(self, zipf_file, tmp_path, capsys):
        metrics = tmp_path / "profile.jsonl"
        assert main(["profile", str(zipf_file), "--mode", "shards", "--rate", "0.1", "--metrics", str(metrics)]) == 0
        records = _validate_jsonl(metrics)
        assert records[0]["command"] == "profile"
        names = {r["name"] for r in records[1:]}
        assert "profiling.job" in names
        assert "profiling.accesses" in names
        assert "wrote metrics to" in capsys.readouterr().out

    def test_sweep_writes_metrics(self, zipf_file, tmp_path, capsys):
        metrics = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", str(zipf_file), "--policies", "lru,fifo", "--capacities", "16,64,256", "--metrics", str(metrics)]
        )
        assert code == 0
        records = _validate_jsonl(metrics)
        names = {r["name"] for r in records[1:]}
        assert {"sweep.kernel", "sweep.lane_refs", "sweep.footprint"} <= names
        lane_refs = [r for r in records if r.get("name") == "sweep.lane_refs"]
        # 3 capacities × 8000 accesses per policy
        assert {r["value"] for r in lane_refs} == {24000}
        capsys.readouterr()

    def test_partition_writes_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "partition.jsonl"
        code = main(
            ["partition", "--tenants", "sawtooth:items=256,stream:n=200", "--budget", "256",
             "--metrics", str(metrics)]
        )
        assert code == 0
        records = _validate_jsonl(metrics)
        names = {r["name"] for r in records[1:]}
        assert {"partition.profile", "partition.allocate", "partition.tenants", "profiling.job"} <= names
        capsys.readouterr()

    def test_online_writes_metrics_with_epoch_series(self, tmp_path, capsys):
        metrics = tmp_path / "online.jsonl"
        code = main(
            ["online", "--length", "2000", "--budget", "256", "--window", "2000", "--epoch", "1000",
             "--metrics", str(metrics)]
        )
        assert code == 0
        records = _validate_jsonl(metrics)
        names = {r["name"] for r in records[1:]}
        assert {
            "online.events", "online.epochs", "online.replay", "online.profiles", "online.lanes", "replay.lane_refs"
        } <= names
        series = [r for r in records if r["type"] == "series" and r["name"] == "online.epochs"]
        assert series, "online run recorded no per-epoch series"
        for row in (r["row"] for r in series):
            for key in ("epoch", "static", "adaptive", "oracle", "phase_change", "reallocated",
                        "moved_blocks", "allocation", "sketch_sampled", "gain", "penalty"):
                assert key in row
        # each series row is the epoch's result row plus four observational keys
        from repro import api

        result = api.online("three-phase", 256, 2000, 1000, length=2000)
        extra = ("sketch_sampled", "gain", "penalty", "profile_failures")
        assert [{k: v for k, v in r["row"].items() if k not in extra} for r in series] == result.rows()
        # the three lanes each replay every composed event
        events = next(r["value"] for r in records if r.get("name") == "online.events")
        lane_refs = next(r["value"] for r in records if r.get("name") == "replay.lane_refs")
        assert lane_refs == 3 * events
        capsys.readouterr()


class TestMetricsNeverChangeResults:
    @pytest.mark.parametrize(
        "command",
        [
            ["profile", "{trace}", "--mode", "shards", "--rate", "0.1", "--csv", "{csv}"],
            ["sweep", "{trace}", "--policies", "lru,random", "--capacities", "16,128", "--csv", "{csv}"],
            [
                "partition", "--tenants", "sawtooth:items=128,cyclic:items=64", "--budget", "128",
                "--csv", "{csv}",
            ],
            ["online", "--length", "1500", "--budget", "200", "--window", "1500", "--epoch", "750",
             "--csv", "{csv}"],
        ],
        ids=["profile", "sweep", "partition", "online"],
    )
    def test_csv_bit_identical_with_metrics_on_vs_off(self, command, zipf_file, tmp_path, capsys):
        def run(tag, with_metrics):
            csv_path = tmp_path / f"{tag}.csv"
            argv = [arg.format(trace=zipf_file, csv=csv_path) for arg in command]
            if with_metrics:
                argv += ["--metrics", str(tmp_path / f"{tag}.jsonl")]
            assert main(argv) == 0
            capsys.readouterr()
            return csv_path.read_bytes()

        plain = run("off", with_metrics=False)
        recorded = run("on", with_metrics=True)
        assert plain == recorded

    def test_online_printed_output_identical(self, capsys, tmp_path):
        argv = ["online", "--length", "1200", "--budget", "150", "--window", "1200", "--epoch", "600"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--metrics", str(tmp_path / "m.jsonl")]) == 0
        recorded = capsys.readouterr().out
        assert recorded.startswith(plain)
        extra = recorded[len(plain):]
        assert extra.startswith("wrote metrics to ")


class TestOutputPathHandling:
    def test_csv_target_creates_missing_parents(self, zipf_file, tmp_path, capsys):
        csv_path = tmp_path / "does" / "not" / "exist" / "curve.csv"
        assert main(["mrc", str(zipf_file), "--csv", str(csv_path), "--max-size", "8"]) == 0
        assert csv_path.exists()
        capsys.readouterr()

    def test_empty_rows_csv_still_creates_parents(self, tmp_path):
        from repro.analysis.reporting import write_csv

        target = tmp_path / "missing" / "dir" / "empty.csv"
        assert write_csv(target, []) == target
        assert target.read_text() == ""

    def test_metrics_target_creates_missing_parents(self, zipf_file, tmp_path, capsys):
        metrics = tmp_path / "a" / "b" / "m.jsonl"
        assert main(["profile", str(zipf_file), "--mode", "reuse", "--metrics", str(metrics)]) == 0
        assert metrics.exists()
        capsys.readouterr()


class TestMetricsSubcommand:
    def test_scoreboard_of_a_recorded_run(self, zipf_file, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(["profile", str(zipf_file), "--mode", "shards", "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "run: profile" in out
        assert "counters:" in out
        assert "spans:" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such metrics file" in capsys.readouterr().err

    def test_perf_trajectory_scoreboard_and_baseline(self, tmp_path, capsys):
        trajectory = tmp_path / "perf.jsonl"
        record_perf(trajectory, "bench_replay", "speedup", 12.0, unit="x")
        record_perf(trajectory, "bench_sweep", "speedup", 40.0, unit="x")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                [
                    {"benchmark": "bench_replay", "metric": "speedup", "value": 11.0},
                    {"benchmark": "bench_sweep", "metric": "speedup", "value": 39.0},
                ]
            )
        )
        assert main(["metrics", str(trajectory), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory" in out
        assert "within ±30% of baseline (2 metrics compared)" in out

    def test_baseline_regression_warns_but_exits_zero(self, tmp_path, capsys):
        trajectory = tmp_path / "perf.jsonl"
        record_perf(trajectory, "bench_replay", "speedup", 2.0, unit="x")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps([{"benchmark": "bench_replay", "metric": "speedup", "value": 20.0}]))
        assert main(["metrics", str(trajectory), "--baseline", str(baseline)]) == 0
        assert "PERF REGRESSION" in capsys.readouterr().out
        # sanity: the loader agrees the current value regressed
        assert load_perf(trajectory)[0].value == 2.0
