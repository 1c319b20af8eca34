"""Chunked columnar traces: bounded-memory segments, optionally memmap-backed.

The in-memory :class:`~repro.trace.trace.Trace` container materialises the
whole access array; the replay data plane (:mod:`repro.sim.partitioned`)
only ever needs one *segment* at a time.  :class:`StreamingTrace` provides
that view: columnar ``items`` / ``tenant_ids`` arrays — plain ``ndarray`` or
``numpy.memmap`` — iterated as fixed-size segment copies, so a ``10^7+``
reference trace on disk replays with one segment plus ``O(footprint)``
carried state resident (asserted in ``benchmarks/test_bench_replay.py``).

File-backed traces use the standard ``.npy`` format, one file per column
(``<stem>.items.npy`` and ``<stem>.tenants.npy``), so they round-trip
through plain :func:`numpy.load` and external tools as well:

* :func:`create_memmap_trace` — allocate a writable trace of a given length
  and fill it segment by segment (nothing is ever fully resident).
* :func:`open_memmap_trace` — reopen it read-only, memory-mapped.
* :func:`as_streaming` — wrap an in-memory trace/array in the same interface
  so consumers are agnostic to where the columns live.

**Integrity.** ``flush`` additionally writes a ``<stem>.manifest.json``
sidecar recording each column's length, dtype and CRC-32; ``open`` verifies
the columns against it (and always checks existence, shape and dtype
agreement) so a truncated or bit-flipped trace fails up front with a
:class:`~repro.resilience.errors.TraceIntegrityError` naming the file and
the expected vs. found value — not hours later as an unrelated numpy shape
error deep in a replay.  Traces written before the sidecar existed still
open; they simply get the structural checks only.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cache._native import crc32
from ..obs import get_registry
from ..resilience.errors import TraceIntegrityError
from .trace import Trace

__all__ = [
    "DEFAULT_SEGMENT",
    "StreamingTrace",
    "as_streaming",
    "create_memmap_trace",
    "open_memmap_trace",
    "verify_memmap_trace",
    "write_trace_manifest",
]

#: Schema version of the trace sidecar manifest; bumped on incompatible changes.
TRACE_MANIFEST_SCHEMA = 1

#: Default segment length (references per yielded chunk).
DEFAULT_SEGMENT: int = 1 << 18


def _check_integer_column(column: np.ndarray, name: str) -> None:
    """Reject non-integer columns instead of silently truncating labels.

    ``astype(int64)`` would collapse distinct float labels (1.5 and 1.9 both
    become 1), manufacturing hits downstream; the rest of the library raises
    ``TypeError`` on float traces, so the streaming layer must too.
    """
    if column.size and not np.issubdtype(column.dtype, np.integer):
        raise TypeError(f"{name} must be integers, got dtype {column.dtype}")


@dataclass(frozen=True)
class StreamingTrace:
    """A columnar access trace iterated in bounded-memory segments.

    ``items`` holds the access labels and ``tenant_ids`` the owning tenant
    per access (all zeros for a single-tenant trace); either may be a
    ``numpy.memmap``, in which case :meth:`segments` is what keeps residency
    bounded — each yielded pair is an in-memory *copy* of one segment, so no
    reference into the mapped file escapes to the consumer.

    Examples
    --------
    >>> trace = as_streaming([3, 1, 4, 1, 5, 9, 2, 6], segment=3)
    >>> [items.tolist() for items, _ids in trace.segments()]
    [[3, 1, 4], [1, 5, 9], [2, 6]]
    """

    items: np.ndarray
    tenant_ids: np.ndarray
    segment: int = DEFAULT_SEGMENT

    def __post_init__(self):
        if self.items.ndim != 1 or self.tenant_ids.ndim != 1:
            raise ValueError("items and tenant_ids must be one-dimensional")
        if self.items.shape != self.tenant_ids.shape:
            raise ValueError(f"items and tenant_ids must align, got {self.items.shape} vs {self.tenant_ids.shape}")
        for name, column in (("items", self.items), ("tenant_ids", self.tenant_ids)):
            _check_integer_column(column, name)
        if int(self.segment) < 1:
            raise ValueError(f"segment must be >= 1, got {self.segment}")

    def __len__(self) -> int:
        return int(self.items.size)

    @property
    def num_tenants(self) -> int:
        """One more than the largest tenant id (1 for an empty trace)."""
        return int(self.tenant_ids.max()) + 1 if len(self) else 1

    def segments(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(items, tenant_ids)`` copies of at most ``segment`` references."""
        registry = get_registry()
        if registry.enabled:
            registry.gauge("trace.memmap").set(int(isinstance(self.items, np.memmap)))
            registry.gauge("trace.references").set(len(self))
        for start in range(0, len(self), int(self.segment)):
            stop = start + int(self.segment)
            items = np.array(self.items[start:stop], dtype=np.int64, copy=True)
            tenant_ids = np.array(self.tenant_ids[start:stop], dtype=np.int64, copy=True)
            if registry.enabled:
                registry.counter("trace.segments").inc()
                registry.counter("trace.segment_bytes").add(items.nbytes + tenant_ids.nbytes)
            yield items, tenant_ids

    def fill(self, start: int, items: Sequence[int] | np.ndarray, tenant_ids: Sequence[int] | np.ndarray) -> int:
        """Write one segment at position ``start`` (for writable/memmap traces).

        Returns the position after the written segment, so producers can
        thread it through a fill loop.
        """
        items = np.asarray(items)
        tenant_ids = np.asarray(tenant_ids)
        if items.shape != tenant_ids.shape or items.ndim != 1:
            raise ValueError("fill needs aligned one-dimensional items and tenant_ids")
        _check_integer_column(items, "items")
        _check_integer_column(tenant_ids, "tenant_ids")
        items = items.astype(np.int64, copy=False)
        tenant_ids = tenant_ids.astype(np.int64, copy=False)
        stop = int(start) + int(items.size)
        if not 0 <= int(start) <= stop <= len(self):
            backing = f" (backing file {self.items.filename})" if isinstance(self.items, np.memmap) else ""
            raise ValueError(
                f"segment [{start}, {stop}) does not fit a {len(self)}-reference trace: "
                f"need 0 <= start <= stop <= {len(self)}{backing}"
            )
        self.items[int(start) : stop] = items
        self.tenant_ids[int(start) : stop] = tenant_ids
        return stop

    def flush(self) -> None:
        """Flush memmap columns to disk and refresh the integrity sidecar.

        No-op for plain in-memory arrays.  For memmap-backed traces the
        ``<stem>.manifest.json`` sidecar is rewritten after the data lands,
        so :func:`open_memmap_trace` can verify the columns' length, dtype
        and CRC-32 the next time the trace is opened.
        """
        mapped = [column for column in (self.items, self.tenant_ids) if isinstance(column, np.memmap)]
        for column in mapped:
            column.flush()
        if len(mapped) == 2 and getattr(self.items, "filename", None):
            write_trace_manifest(_stem_of(Path(self.items.filename)))


def _column_paths(path: str | Path) -> tuple[Path, Path]:
    stem = Path(path)
    return stem.with_name(stem.name + ".items.npy"), stem.with_name(stem.name + ".tenants.npy")


def _manifest_path(path: str | Path) -> Path:
    stem = Path(path)
    return stem.with_name(stem.name + ".manifest.json")


def _stem_of(items_path: Path) -> Path:
    """Recover the trace stem from an ``<stem>.items.npy`` column path."""
    name = items_path.name
    suffix = ".items.npy"
    if not name.endswith(suffix):  # pragma: no cover - only reachable with foreign memmaps
        raise ValueError(f"{items_path} is not a <stem>{suffix} trace column")
    return items_path.with_name(name[: -len(suffix)])


def _read_column_header(handle) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype of the ``.npy`` column open in ``handle``, from its header alone.

    Raises ``ValueError`` on a malformed header or on a payload shorter than
    the header promises, as mapping the column would.
    """
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
    else:
        shape, _, dtype = np.lib.format.read_array_header_2_0(handle)
    data_bytes = os.fstat(handle.fileno()).st_size - handle.tell()
    if data_bytes < math.prod(shape) * dtype.itemsize:
        raise ValueError(f"payload is {data_bytes} bytes, the header promises shape {shape} of {dtype}")
    return shape, dtype


def _crc32_of_handle(handle) -> int:
    """Streamed CRC-32 of a whole open file (1 MiB blocks, nothing fully resident)."""
    handle.seek(0)
    crc = 0
    for block in iter(lambda: handle.read(1 << 20), b""):
        crc = crc32(block, crc)
    return crc


def _crc32_of(path: Path) -> int:
    """Streamed CRC-32 of a whole file."""
    with open(path, "rb") as handle:
        return _crc32_of_handle(handle)


def write_trace_manifest(path: str | Path) -> Path:
    """Write the ``<stem>.manifest.json`` integrity sidecar for a trace on disk.

    Records each column file's length, dtype and streamed CRC-32.  Written
    atomically (tmp file + rename) so a crash mid-write leaves the previous
    sidecar, never a half-written one.  ``flush`` calls this automatically;
    it is public so externally produced column files can be sealed too.
    """
    columns = {}
    for name, file in zip(("items", "tenants"), _column_paths(path)):
        column = np.load(file, mmap_mode="r")  # header only; data stays on disk
        columns[name] = {
            "file": file.name,
            "length": int(column.shape[0]),
            "dtype": str(column.dtype),
            "crc32": _crc32_of(file),
        }
        del column
    manifest_path = _manifest_path(path)
    payload = json.dumps({"schema": TRACE_MANIFEST_SCHEMA, "columns": columns}, indent=2) + "\n"
    tmp = manifest_path.with_name(manifest_path.name + ".tmp")
    tmp.write_text(payload, encoding="utf-8")
    os.replace(tmp, manifest_path)
    return manifest_path


def _read_trace_manifest(path: str | Path) -> dict | None:
    """The sidecar manifest's column entries, or ``None`` for a pre-sidecar trace."""
    manifest_path = _manifest_path(path)
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as error:
        raise TraceIntegrityError(str(manifest_path), reason=f"unreadable manifest: {error}") from error
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        raise TraceIntegrityError(str(manifest_path), reason=f"unreadable manifest: {error}") from error
    schema = manifest.get("schema")
    if schema != TRACE_MANIFEST_SCHEMA:
        raise TraceIntegrityError(
            str(manifest_path), reason="manifest schema mismatch", expected=TRACE_MANIFEST_SCHEMA, found=schema
        )
    columns = manifest.get("columns", {})
    for name in ("items", "tenants"):
        if name not in columns:
            raise TraceIntegrityError(str(manifest_path), reason=f"manifest lists no {name!r} column")
    return columns


def verify_memmap_trace(path: str | Path) -> None:
    """Run every integrity check on an on-disk trace without opening it for use.

    Raises :class:`~repro.resilience.errors.TraceIntegrityError` on missing
    column files, unreadable/truncated ``.npy`` payloads, shape or dtype
    disagreements, and — when the ``<stem>.manifest.json`` sidecar exists —
    checksum mismatches.  Returns ``None`` when the trace is sound.  Each
    column file is opened once: its header is checked, then its bytes are
    checksummed against the manifest.
    """
    items_path, tenants_path = _column_paths(path)
    for file in (items_path, tenants_path):
        if not file.exists():
            raise TraceIntegrityError(str(file), reason="column file is missing")
    manifest = _read_trace_manifest(path)
    shapes = {}
    for name, file in zip(("items", "tenants"), (items_path, tenants_path)):
        try:
            handle = open(file, "rb")
        except OSError as error:
            raise TraceIntegrityError(str(file), reason=f"unreadable .npy column: {error}") from error
        with handle:
            try:
                shape, dtype = _read_column_header(handle)
            except (ValueError, OSError) as error:
                raise TraceIntegrityError(str(file), reason=f"unreadable .npy column: {error}") from error
            if len(shape) != 1:
                raise TraceIntegrityError(
                    str(file), reason="column is not one-dimensional", expected="1-d", found=f"shape {shape}"
                )
            if not np.issubdtype(dtype, np.integer):
                raise TraceIntegrityError(
                    str(file), reason="column dtype is not integral", expected="integer dtype", found=str(dtype)
                )
            shapes[file] = shape
            if manifest is not None:
                _check_against_manifest(file, handle, manifest[name])
    if shapes[items_path] != shapes[tenants_path]:
        raise TraceIntegrityError(
            str(tenants_path),
            reason=f"column lengths disagree with {items_path.name}",
            expected=f"shape {shapes[items_path]}",
            found=f"shape {shapes[tenants_path]}",
        )


def _check_against_manifest(file: Path, handle, recorded: dict) -> None:
    """Check one open column file's size and CRC-32 against its manifest entry."""
    size = os.fstat(handle.fileno()).st_size
    expected_size = recorded["length"] * np.dtype(recorded["dtype"]).itemsize
    if size < expected_size:  # cheap truncation check before hashing
        raise TraceIntegrityError(
            str(file),
            reason=f"column file is shorter than its {recorded['length']}-element manifest entry",
            expected=f">= {expected_size} data bytes",
            found=f"{size} file bytes",
        )
    found = _crc32_of_handle(handle)
    if found != recorded["crc32"]:
        raise TraceIntegrityError(
            str(file),
            reason="column checksum mismatch (file changed since flush)",
            expected=f"crc32={recorded['crc32']}",
            found=f"crc32={found}",
        )


def create_memmap_trace(path: str | Path, length: int, *, segment: int = DEFAULT_SEGMENT) -> StreamingTrace:
    """Allocate a writable memmap-backed trace of ``length`` references.

    Creates ``<path>.items.npy`` and ``<path>.tenants.npy`` (standard
    ``.npy`` files) and returns the :class:`StreamingTrace` over the mapped
    columns; fill it with :meth:`StreamingTrace.fill` and
    :meth:`StreamingTrace.flush`, then reopen read-only with
    :func:`open_memmap_trace`.
    """
    if int(length) < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    items_path, tenants_path = _column_paths(path)
    items = np.lib.format.open_memmap(items_path, mode="w+", dtype=np.int64, shape=(int(length),))
    tenants = np.lib.format.open_memmap(tenants_path, mode="w+", dtype=np.int64, shape=(int(length),))
    return StreamingTrace(items=items, tenant_ids=tenants, segment=int(segment))


def open_memmap_trace(path: str | Path, *, segment: int = DEFAULT_SEGMENT, verify: bool = True) -> StreamingTrace:
    """Reopen a trace written by :func:`create_memmap_trace`, memory-mapped read-only.

    With ``verify`` (the default) the columns are integrity-checked first —
    existence, readable ``.npy`` payload, shape/dtype agreement, and the
    sidecar manifest's length/dtype/CRC-32 when one exists — raising
    :class:`~repro.resilience.errors.TraceIntegrityError` on any damage
    instead of handing a broken trace to the replay.
    """
    if verify:
        verify_memmap_trace(path)
    items_path, tenants_path = _column_paths(path)
    try:
        items = np.load(items_path, mmap_mode="r")
        tenants = np.load(tenants_path, mmap_mode="r")
    except (ValueError, OSError) as error:
        raise TraceIntegrityError(str(items_path), reason=f"unreadable .npy column: {error}") from error
    return StreamingTrace(items=items, tenant_ids=tenants, segment=int(segment))


def as_streaming(
    trace: Trace | Sequence[int] | np.ndarray,
    *,
    tenant_ids: Sequence[int] | np.ndarray | None = None,
    segment: int = DEFAULT_SEGMENT,
) -> StreamingTrace:
    """Wrap an in-memory trace (or raw access array) in the streaming interface.

    Without ``tenant_ids`` every access belongs to tenant 0, which is how a
    single-stream trace replays through the multi-tenant data plane.
    """
    items = trace.accesses if isinstance(trace, Trace) else np.asarray(trace)
    if items.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {items.shape}")
    _check_integer_column(items, "items")
    items = items.astype(np.int64, copy=False)
    if tenant_ids is None:
        ids = np.zeros(items.size, dtype=np.int64)
    else:
        ids = np.asarray(tenant_ids)
        _check_integer_column(ids, "tenant_ids")
        ids = ids.astype(np.int64, copy=False)
    return StreamingTrace(items=items, tenant_ids=ids, segment=int(segment))
