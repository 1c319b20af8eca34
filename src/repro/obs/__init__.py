"""Observability: one instrumentation substrate for every engine.

The rule of the layer is that instrumentation is *additive only*: turning
metrics on never changes a result row, summary, or allocation (asserted by
the differential suite), and with nothing recording the instrumented hot
paths run through shared no-op singletons at seed speed.

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` (counters, gauges,
  fixed-bucket histograms, span timings, per-epoch series), the
  :func:`recording` context that installs the active registry, and the
  :func:`span` timing context manager with its disabled fast path.
* :mod:`repro.obs.manifest` — :class:`RunManifest`: args/seed/git-sha/
  versions provenance written at the head of every metrics file.
* :mod:`repro.obs.export` — JSONL (canonical), CSV, and Prometheus text
  exporters, the ``repro metrics`` scoreboard renderer, and
  :func:`run_recorded`, which records one run into a JSONL file.
* :mod:`repro.obs.trajectory` — structured benchmark perf records and the
  direction-aware baseline comparison behind the CI perf-trajectory gate.

Examples
--------
Nothing recording: metrics are no-ops, but spans still measure.

>>> from repro.obs import MetricsRegistry, get_registry, recording, span
>>> get_registry().enabled
False
>>> with span("warmup") as timer:
...     _ = sum(range(100))
>>> timer.seconds >= 0.0
True

Install a registry to record; counters, histograms, and series accumulate:

>>> registry = MetricsRegistry()
>>> with recording(registry):
...     for batch in ([3, 1, 4], [1, 5]):
...         with span("ingest", source="demo"):
...             get_registry().counter("events").add(len(batch))
>>> registry.counter("events").value
5
>>> hist = registry.histogram("moved", edges=(1, 4, 16))
>>> hist.observe_many([2, 3, 20])
>>> hist.counts
[0, 2, 0, 1]

Registries merge associatively — sharded partials fold in any order:

>>> shard = MetricsRegistry()
>>> shard.counter("events").add(7)
>>> registry.merge(shard).counter("events").value
12
"""

from .export import (
    prometheus_text,
    read_jsonl,
    run_recorded,
    summarize_records,
    write_jsonl,
    write_metrics_csv,
    write_prometheus,
)
from .manifest import RunManifest, git_sha
from .registry import (
    Counter,
    EpochSeriesRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    SpanStats,
    get_registry,
    recording,
    span,
)
from .trajectory import PerfRecord, compare_to_baseline, load_perf, record_perf

__all__ = [
    "Counter",
    "EpochSeriesRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PerfRecord",
    "RunManifest",
    "Span",
    "SpanStats",
    "compare_to_baseline",
    "get_registry",
    "git_sha",
    "load_perf",
    "prometheus_text",
    "read_jsonl",
    "record_perf",
    "recording",
    "run_recorded",
    "span",
    "summarize_records",
    "write_jsonl",
    "write_metrics_csv",
    "write_prometheus",
]
