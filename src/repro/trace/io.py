"""Trace file input/output.

Reuse-distance tooling is usually driven from trace files; this module reads
and writes the two simple formats the examples use:

* **text** — one access per line, optionally with ``#`` comments; the format
  produced by most academic trace collectors after post-processing.
* **binary (npz)** — a compressed NumPy archive holding the access array plus
  a small metadata dictionary; compact and fast for long traces.

Both formats round-trip exactly and are covered by tests.

:func:`read_text` parses a file's bytes with the native ``parse_labels``
kernel (:mod:`repro.cache._native`) when it can: ASCII lines, each an
optionally signed decimal label, blank or a ``#`` comment, ended by ``\n``
or ``\r``.  Any other file, and every file on a machine without a C
compiler, goes through the Python loop, which also reports the errors; both
paths give the same trace.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..cache._native import native_kernels
from .trace import Trace

__all__ = ["write_text", "read_text", "write_npz", "read_npz"]

_LABEL_MAX = int(np.iinfo(np.intp).max)


def write_text(trace: Trace, path: str | Path, *, header: bool = True) -> Path:
    """Write a trace as one access label per line.

    A comment header records the trace name and footprint so the file is
    self-describing; pass ``header=False`` for the bare format.
    """
    path = Path(path)
    if header and "".join(trace.name.splitlines()) != trace.name:
        raise ValueError(f"trace name {trace.name!r} holds a line break; the header could not be read back")
    lines = []
    if header:
        lines.append(f"# name: {trace.name}")
        lines.append(f"# accesses: {len(trace)}")
        lines.append(f"# footprint: {trace.footprint}")
    lines.extend(str(int(x)) for x in trace.accesses)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_text(path: str | Path, *, name: str | None = None) -> Trace:
    """Read a text trace written by :func:`write_text` (or any one-label-per-line file).

    The trace is named ``name``, else by the first ``# name:`` comment, else
    by the file's stem.  The native kernel parses the file when it can and
    the Python loop otherwise, with the same result.  A line that is not a
    blank, a comment or a non-negative label that fits in ``np.intp`` raises
    :class:`ValueError` naming the file and line, as does a file that is not
    UTF-8.
    """
    path = Path(path)
    data = path.read_bytes()
    native = native_kernels()
    parsed = None if native is None else native.parse_labels(data)
    accesses, comment_name = _parse_text(data, path) if parsed is None else parsed
    return Trace(accesses, name=(comment_name if name is None else name) or path.stem)


def _parse_text(data: bytes, path: Path) -> tuple[np.ndarray, str | None]:
    """The labels of a text trace and the stripped text after ``name:`` of its first ``# name:`` comment."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(f"{path}: not UTF-8 text: {error}") from None
    accesses = []
    comment_name = None
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if comment_name is None and line[1:].strip().startswith("name:"):
                comment_name = line.split("name:", 1)[1].strip()
            continue
        try:
            label = int(line)
        except ValueError:
            raise ValueError(f"{path}:{number}: not an integer label: {line!r}") from None
        if not 0 <= label <= _LABEL_MAX:
            raise ValueError(f"{path}:{number}: label {line} is outside [0, {_LABEL_MAX}]")
        accesses.append(label)
    return np.asarray(accesses, dtype=np.intp), comment_name


def write_npz(trace: Trace, path: str | Path, *, metadata: dict | None = None) -> Path:
    """Write a trace as a compressed ``.npz`` archive with optional JSON metadata."""
    path = Path(path)
    meta = {"name": trace.name, "accesses": len(trace), "footprint": trace.footprint}
    if metadata:
        meta.update(metadata)
    np.savez_compressed(
        path,
        accesses=trace.accesses.astype(np.int64),
        metadata=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_npz(path: str | Path) -> tuple[Trace, dict]:
    """Read a trace and its metadata from a ``.npz`` archive written by :func:`write_npz`."""
    path = Path(path)
    with np.load(path) as archive:
        accesses = archive["accesses"]
        meta_bytes = archive["metadata"].tobytes() if "metadata" in archive else b"{}"
    metadata = json.loads(meta_bytes.decode("utf-8")) if meta_bytes else {}
    return Trace(accesses, name=metadata.get("name", path.stem)), metadata
