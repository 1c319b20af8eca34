"""Exporters, run manifests, and the perf trajectory."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    PerfRecord,
    RunManifest,
    compare_to_baseline,
    load_perf,
    prometheus_text,
    read_jsonl,
    record_perf,
    summarize_records,
    write_jsonl,
    write_metrics_csv,
    write_prometheus,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("events", source="demo").add(5)
    r.gauge("workers").set(4)
    r.histogram("moved", edges=(1, 4, 16)).observe_many([2, 3, 20])
    r.record_span("work", 0.5, stage="x")
    r.series("epochs").record(epoch=0, hits=1)
    r.series("epochs").record(epoch=1, hits=2)
    return r


class TestJsonl:
    def test_round_trip_with_manifest(self, tmp_path, registry):
        manifest = RunManifest.collect("demo", argv=["--x"], seed=42)
        path = write_jsonl(tmp_path / "m.jsonl", registry, manifest)
        records = read_jsonl(path)
        assert records[0]["type"] == "manifest"
        assert records[0]["command"] == "demo"
        assert records[0]["seed"] == 42
        kinds = {r["type"] for r in records[1:]}
        assert kinds == {"counter", "gauge", "histogram", "span", "series"}
        series = [r for r in records if r["type"] == "series"]
        assert [r["row"]["epoch"] for r in series] == [0, 1]

    def test_creates_missing_parent_directories(self, tmp_path, registry):
        path = write_jsonl(tmp_path / "deep" / "nested" / "m.jsonl", registry)
        assert path.exists()

    def test_every_line_is_valid_json(self, tmp_path, registry):
        path = write_jsonl(tmp_path / "m.jsonl", registry, RunManifest.collect("demo"))
        for line in path.read_text().splitlines():
            json.loads(line)


class TestCsvAndPrometheus:
    def test_csv_has_header_and_all_kinds(self, tmp_path, registry):
        path = write_metrics_csv(tmp_path / "sub" / "m.csv", registry)
        lines = path.read_text().splitlines()
        assert lines[0] == "type,name,labels,field,value"
        kinds = {line.split(",", 1)[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram", "span", "series"}

    def test_prometheus_conventions(self, tmp_path, registry):
        text = prometheus_text(registry)
        assert '# TYPE events_total counter' in text
        assert 'events_total{source="demo"} 5' in text
        assert "workers 4" in text
        # cumulative le buckets plus +Inf, _sum and _count
        assert 'moved_bucket{le="1.0"} 0' in text
        assert 'moved_bucket{le="4.0"} 2' in text
        assert 'moved_bucket{le="16.0"} 2' in text
        assert 'moved_bucket{le="+Inf"} 3' in text
        assert "moved_sum 25.0" in text
        assert "moved_count 3" in text
        assert 'work_seconds_sum{stage="x"} 0.5' in text
        path = write_prometheus(tmp_path / "sub" / "m.prom", registry)
        assert path.read_text() == text


class TestScoreboard:
    def test_summarize_covers_every_kind(self, tmp_path, registry):
        path = write_jsonl(tmp_path / "m.jsonl", registry, RunManifest.collect("demo", seed=3))
        text = summarize_records(read_jsonl(path))
        assert "run: demo" in text and "seed=3" in text
        assert "events{source=demo} = 5" in text
        assert "workers = 4" in text
        assert "work{stage=x}: count=1" in text
        assert "moved: count=3" in text
        assert "epochs: 2 rows" in text

    def test_empty_records(self):
        assert summarize_records([]) == "(no records)"


class TestManifest:
    def test_collect_captures_environment(self):
        import numpy as np

        manifest = RunManifest.collect("cmd", argv=["a", "b"], seed=1, extra_key="v")
        assert manifest.python and manifest.numpy == np.__version__
        assert manifest.timestamp.endswith("+00:00")
        record = manifest.to_record()
        assert record["type"] == "manifest"
        assert record["argv"] == ["a", "b"]
        assert record["extra"] == {"extra_key": "v"}

    def test_records_the_distance_kernel(self):
        from repro.cache._native import kernel_name

        record = RunManifest.collect("cmd").to_record()
        assert record["kernel"] == kernel_name() in ("native", "numpy")
        assert f"kernel={record['kernel']}" in summarize_records([record])


class TestTrajectory:
    def test_record_perf_replaces_by_key(self, tmp_path):
        path = tmp_path / "perf.jsonl"
        record_perf(path, "bench", "speedup", 10.0, unit="x")
        record_perf(path, "bench", "speedup", 12.0, unit="x")
        record_perf(path, "bench", "other", 1.0)
        records = load_perf(path)
        assert len(records) == 2
        by_metric = {r.metric: r.value for r in records}
        assert by_metric == {"speedup": 12.0, "other": 1.0}

    def test_record_perf_creates_parent_dirs(self, tmp_path):
        record_perf(tmp_path / "results" / "perf.jsonl", "bench", "m", 1.0)
        assert (tmp_path / "results" / "perf.jsonl").exists()

    def test_load_perf_accepts_json_array_baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps([{"benchmark": "b", "metric": "m", "value": 2.0}]))
        records = load_perf(path)
        assert records == [PerfRecord("b", "m", 2.0)]

    def test_load_perf_skips_non_perf_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"type": "counter", "name": "x", "value": 1})
            + "\n"
            + json.dumps({"benchmark": "b", "metric": "m", "value": 3.0})
            + "\n"
        )
        assert load_perf(path) == [PerfRecord("b", "m", 3.0)]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_perf(tmp_path / "nope.jsonl") == []

    def test_compare_direction_aware(self):
        baseline = [
            PerfRecord("b", "throughput", 100.0, direction="higher_is_better"),
            PerfRecord("b", "latency", 1.0, direction="lower_is_better"),
        ]
        fine = [PerfRecord("b", "throughput", 80.0), PerfRecord("b", "latency", 1.2, direction="lower_is_better")]
        assert compare_to_baseline(fine, baseline) == []
        regressed = [
            PerfRecord("b", "throughput", 50.0),
            PerfRecord("b", "latency", 2.0, direction="lower_is_better"),
        ]
        warnings = compare_to_baseline(regressed, baseline)
        assert len(warnings) == 2
        assert all("PERF REGRESSION" in w for w in warnings)

    def test_improvements_and_missing_metrics_never_flagged(self):
        baseline = [PerfRecord("b", "speedup", 10.0), PerfRecord("gone", "m", 5.0)]
        current = [PerfRecord("b", "speedup", 100.0)]
        assert compare_to_baseline(current, baseline) == []

    def test_bad_direction_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="direction"):
            record_perf(tmp_path / "p.jsonl", "b", "m", 1.0, direction="sideways")
