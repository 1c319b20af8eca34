"""Plain-text and CSV reporting helpers for the experiment drivers.

The paper's figures are line plots; without a plotting stack in the offline
environment the benchmarks emit the identical numeric series as aligned text
tables (for the console / captured benchmark output) and as CSV files (for
re-plotting elsewhere).  Keeping the formatting in one place makes the
benchmark harness output uniform across experiments.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping, Sequence
from pathlib import Path

__all__ = ["format_table", "write_csv", "format_series", "format_curve_family"]


def format_table(
    rows: Sequence[Mapping[str, object]] | Sequence[Sequence[object]],
    *,
    headers: Sequence[str] | None = None,
    float_format: str = "{:.4f}",
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    ``rows`` may be dictionaries (headers default to the union of keys, in
    first-seen order) or plain sequences (headers required).
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if isinstance(rows[0], Mapping):
        headers = _union_of_keys(rows) if headers is None else headers
        table = [[row.get(h, "") for h in headers] for row in rows]
    else:
        if headers is None:
            raise ValueError("headers are required when rows are plain sequences")
        table = [list(row) for row in rows]

    def render(value: object) -> str:
        """Format one cell: floats via ``float_format``, everything else via ``str``."""
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(v) for v in row] for row in table]
    widths = [
        max(len(str(headers[col])), *(len(r[col]) for r in rendered)) if rendered else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[object], *, float_format: str = "{:.4f}") -> str:
    """Render one ``(x, y)`` series as a two-column table titled ``name``."""
    rows = [{"x": x, name: y} for x, y in zip(xs, ys)]
    return format_table(rows, headers=["x", name], float_format=float_format)


def format_curve_family(
    x_label: str,
    xs: Sequence[object],
    curves: Mapping[str, Sequence[float]],
    *,
    float_format: str = "{:.4f}",
    title: str | None = None,
) -> str:
    """Render a family of curves sharing the same x axis (one column per curve)."""
    headers = [x_label] + list(curves)
    rows = [{x_label: x, **{name: ys[i] for name, ys in curves.items()}} for i, x in enumerate(xs)]
    return format_table(rows, headers=headers, float_format=float_format, title=title)


def write_csv(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
    *,
    headers: Sequence[str] | None = None,
) -> Path:
    """Write dictionaries as CSV (headers default to the union of keys, in order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("", encoding="utf-8")
        return path
    headers = _union_of_keys(rows) if headers is None else headers
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(headers))
        writer.writeheader()
        for row in rows:
            writer.writerow({h: row.get(h, "") for h in headers})
    return path


def _union_of_keys(rows: Sequence[Mapping[str, object]]) -> list[str]:
    """Every key of ``rows``, in first-seen order."""
    return list(dict.fromkeys(key for row in rows for key in row))
