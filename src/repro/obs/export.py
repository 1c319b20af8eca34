"""Exporters: registry → JSONL (canonical), CSV, and Prometheus text format.

JSONL is the canonical on-disk form — one record per line, a ``type`` field
on each (``manifest`` first when provided, then ``counter`` / ``gauge`` /
``histogram`` / ``span`` / ``series``) — and what ``repro metrics``
summarizes.  CSV flattens the same records for spreadsheet triage, and the
Prometheus text format serves scrape-style consumers (cumulative ``le``
buckets, ``_sum`` / ``_count`` conventions).  All writers create missing
parent directories.  :func:`run_recorded` wraps one run in a fresh registry
and writes its JSONL — the one recorder behind ``metrics_path=`` of
:mod:`repro.api` and ``--metrics`` of the CLI.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TypeVar

from .manifest import RunManifest
from .registry import MetricsRegistry, recording

__all__ = [
    "run_recorded",
    "write_jsonl",
    "write_metrics_csv",
    "prometheus_text",
    "write_prometheus",
    "read_jsonl",
    "summarize_records",
]


def _prepare(path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_jsonl(path: str | Path, registry: MetricsRegistry, manifest: RunManifest | None = None) -> Path:
    """Write the registry (manifest line first) as JSON Lines; returns the path."""
    path = _prepare(path)
    lines = []
    if manifest is not None:
        lines.append(json.dumps(manifest.to_record(), sort_keys=True))
    for record in registry.records():
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


T = TypeVar("T")


def run_recorded(
    run: Callable[[], T],
    metrics_path: str | Path | None,
    command: str,
    *,
    argv: Sequence[str] = (),
    seed: int | None = None,
) -> T:
    """Return ``run()``; with a ``metrics_path``, record the run there as JSONL.

    The run executes inside a fresh :class:`MetricsRegistry`, and the file
    starts with a :class:`RunManifest` line naming ``command``, ``argv`` and
    ``seed``.  Recording never changes what ``run()`` returns.
    """
    if metrics_path is None:
        return run()
    registry = MetricsRegistry()
    with recording(registry):
        result = run()
    write_jsonl(metrics_path, registry, RunManifest.collect(command, argv=list(argv), seed=seed))
    return result


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Read back a metrics JSONL file as a list of records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def write_metrics_csv(path: str | Path, registry: MetricsRegistry) -> Path:
    """Write a flat ``type,name,labels,field,value`` CSV of the registry."""
    import csv

    path = _prepare(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["type", "name", "labels", "field", "value"])
        for record in registry.records():
            kind = record["type"]
            name = record["name"]
            labels = json.dumps(record.get("labels", {}), sort_keys=True)
            if kind == "series":
                for field, value in record["row"].items():  # type: ignore[union-attr]
                    writer.writerow([kind, name, json.dumps({"index": record["index"]}), field, value])
            else:
                for field in ("value", "count", "total", "min", "max", "edges", "counts"):
                    if field in record:
                        value = record[field]
                        if isinstance(value, list):
                            value = json.dumps(value)
                        writer.writerow([kind, name, labels, field, value])
    return path


def _prom_name(name: str) -> str:
    out = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return out if not out[:1].isdigit() else "_" + out


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{_prom_name(k)}="{v}"' for k, v in sorted(merged.items()))
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Histograms follow the convention: cumulative ``le``-labelled buckets, a
    ``+Inf`` bucket, and ``_sum`` / ``_count`` samples.  Series are omitted
    (they are not point-in-time samples).
    """
    lines: list[str] = []
    typed: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for record in registry.records():
        kind = record["type"]
        name = _prom_name(str(record["name"]))
        labels = record.get("labels", {})
        assert isinstance(labels, dict)
        if kind == "counter":
            header(name + "_total", "counter")
            lines.append(f"{name}_total{_prom_labels(labels)} {record['value']}")
        elif kind == "gauge":
            if record["value"] is not None:
                header(name, "gauge")
                lines.append(f"{name}{_prom_labels(labels)} {record['value']}")
        elif kind == "histogram":
            header(name, "histogram")
            cumulative = 0
            for edge, count in zip(record["edges"], record["counts"]):  # type: ignore[arg-type]
                cumulative += count
                lines.append(f"{name}_bucket{_prom_labels(labels, {'le': repr(float(edge))})} {cumulative}")
            lines.append(f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} {record['count']}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {record['total']}")
            lines.append(f"{name}_count{_prom_labels(labels)} {record['count']}")
        elif kind == "span":
            header(name + "_seconds", "summary")
            lines.append(f"{name}_seconds_sum{_prom_labels(labels)} {record['total']}")
            lines.append(f"{name}_seconds_count{_prom_labels(labels)} {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str | Path, registry: MetricsRegistry) -> Path:
    """Write :func:`prometheus_text` to ``path``; returns the path."""
    path = _prepare(path)
    path.write_text(prometheus_text(registry), encoding="utf-8")
    return path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summarize_records(records: list[dict[str, object]]) -> str:
    """A human-readable scoreboard of a metrics record list (JSONL contents).

    This is the body of the ``repro metrics`` subcommand: the manifest first,
    then counters, gauges, span timings (with mean), histograms, and a
    per-series row count.
    """
    lines: list[str] = []
    manifests = [r for r in records if r.get("type") == "manifest"]
    for manifest in manifests:
        argv = " ".join(str(a) for a in manifest.get("argv", []))
        lines.append(f"run: {manifest.get('command')} {argv}".rstrip())
        context = [
            f"git={manifest.get('git') or 'n/a'}",
            f"python={manifest.get('python')}",
            f"numpy={manifest.get('numpy')}",
            f"kernel={manifest.get('kernel') or 'n/a'}",
            f"time={manifest.get('timestamp')}",
        ]
        if manifest.get("seed") is not None:
            context.insert(0, f"seed={manifest['seed']}")
        lines.append("  " + " ".join(context))

    def label_suffix(record: dict[str, object]) -> str:
        labels = record.get("labels") or {}
        assert isinstance(labels, dict)
        return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}" if labels else ""

    by_kind: dict[str, list[dict[str, object]]] = {}
    for record in records:
        by_kind.setdefault(str(record.get("type")), []).append(record)

    counters = sorted(by_kind.get("counter", []), key=lambda r: (str(r["name"]), label_suffix(r)))
    if counters:
        lines.append("counters:")
        for record in counters:
            lines.append(f"  {record['name']}{label_suffix(record)} = {_fmt(record['value'])}")
    gauges = sorted(by_kind.get("gauge", []), key=lambda r: (str(r["name"]), label_suffix(r)))
    if gauges:
        lines.append("gauges:")
        for record in gauges:
            lines.append(f"  {record['name']}{label_suffix(record)} = {_fmt(record['value'])}")
    spans = sorted(by_kind.get("span", []), key=lambda r: (str(r["name"]), label_suffix(r)))
    if spans:
        lines.append("spans:")
        for record in spans:
            count = int(record["count"])  # type: ignore[arg-type]
            total = float(record["total"])  # type: ignore[arg-type]
            mean = total / count if count else 0.0
            lines.append(
                f"  {record['name']}{label_suffix(record)}: count={count} total={_fmt(total)}s "
                f"mean={_fmt(mean)}s min={_fmt(record['min'])}s max={_fmt(record['max'])}s"
            )
    histograms = sorted(by_kind.get("histogram", []), key=lambda r: (str(r["name"]), label_suffix(r)))
    if histograms:
        lines.append("histograms:")
        for record in histograms:
            count = int(record["count"])  # type: ignore[arg-type]
            mean = float(record["total"]) / count if count else 0.0  # type: ignore[arg-type]
            lines.append(f"  {record['name']}{label_suffix(record)}: count={count} mean={_fmt(mean)}")
    series_counts: dict[str, int] = {}
    for record in by_kind.get("series", []):
        series_counts[str(record["name"])] = series_counts.get(str(record["name"]), 0) + 1
    if series_counts:
        lines.append("series:")
        for name in sorted(series_counts):
            lines.append(f"  {name}: {series_counts[name]} rows")
    if not lines:
        lines.append("(no records)")
    return "\n".join(lines)
