"""Build, cache and load the native kernels (``_olken.c``).

Nothing happens at import.  The first call of :func:`native_kernels`
compiles the source with the platform C compiler (``sysconfig``'s ``CC``,
else ``cc``) into a shared library cached in the user cache directory
(``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``), named by the SHA-256 of
the source, compiler, flags, platform and interpreter ABI (a home directory
shared by machines of different architectures keeps one library per
machine type), and loads it through :mod:`ctypes`.  The
compiler writes to a unique temporary name that :func:`os.replace` moves
into place, so concurrent processes never load a half-written library.  A
cache directory that cannot be created or is writable by others is never
used; the library is then built in a private temporary directory, as it
is when a cached library fails to load.  When no
compiler is found or the build fails, :func:`native_kernels` returns
``None`` and callers keep their numpy paths.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import zlib
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_olken.c")
#: ``-ffp-contract=off`` keeps every floating-point product rounded on its own, as Python's floats
#: round it: a fused multiply-add would let ``lower_hull`` decide a near-collinear vertex otherwise.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class NativeKernels(NamedTuple):
    """The loaded kernels; each but ``crc32`` and ``lower_convex_hull`` takes an integer trace."""

    #: ``stack_distances(trace) -> (distances, previous)``.
    stack_distances: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    #: ``reuse_time_counts(trace)`` -> ``counts`` of length ``len(trace) + 1``: ``counts[d]``
    #: references whose item was last accessed ``d`` references earlier, ``counts[0]`` cold ones.
    reuse_time_counts: Callable[[np.ndarray], np.ndarray]
    #: ``sample_positions(trace, tweaks, mask, thresholds)`` -> per (tweak, threshold) pair,
    #: the sampled positions in order, from one pass over the trace (two when hot items overflow
    #: the first buffer).
    sample_positions: Callable[[np.ndarray, Sequence[int], int, Sequence[int]], list[np.ndarray]]
    #: ``crc32(bytes_view, value)`` -> ``zlib.crc32(bytes_view, value)``.
    crc32: Callable[[memoryview, int], int]
    #: ``fifo_lanes(trace, capacities, distinct)`` -> the FIFO hits at each capacity.  The caller
    #: (:func:`repro.sim.kernels.fifo_sweep_hits`) checks that every label lies in
    #: ``[0, distinct)`` and every capacity is positive.
    fifo_lanes: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    #: ``random_lanes(trace, capacities, distinct, deviates)`` -> the random-replacement hits at
    #: each capacity, a miss at ``t`` evicting slot ``int(deviates[t] * capacity)`` once the
    #: lane is full.  The caller (:func:`repro.sim.kernels.random_sweep_hits`) checks the labels
    #: and capacities as for ``fifo_lanes`` and passes one deviate per reference.
    random_lanes: Callable[[np.ndarray, np.ndarray, int, np.ndarray], np.ndarray]
    #: ``lru_hits(trace, capacity)`` -> ``LRUCache(capacity).run(trace).hits``, with O(1) work per
    #: reference and memory bounded by the trace, whatever the capacity.  The caller
    #: (:func:`repro.sim.kernels.lru_sweep_hits`, for a grid of one capacity) checks that the
    #: capacity is positive.
    lru_hits: Callable[[np.ndarray, int], int]
    #: ``parse_labels(data)`` -> ``(labels, name)`` of a text trace's bytes: the ``int64``
    #: labels, and the stripped text after ``name:`` of the first ``# name:`` comment (``None``
    #: when there is none); ``None`` for a text the kernel leaves to the Python loop of
    #: :func:`repro.trace.io.read_text` (non-ASCII or control bytes, anything but one
    #: non-negative int64 label, a blank or a comment per line).
    parse_labels: Callable[[bytes], tuple[np.ndarray, str | None] | None]
    #: ``lower_convex_hull(misses)`` -> the ``int64`` vertex indices of the lower convex hull of
    #: the points ``(j, misses[j])``, bit-identical to the Python monotone chain of
    #: :func:`repro.alloc.curves.lower_convex_hull` (same cross-product expression, same order,
    #: no fused multiply-add).  The caller passes a non-empty 1-D ``float64`` array.
    lower_convex_hull: Callable[[np.ndarray], np.ndarray]


def compiler() -> list[str] | None:
    """The C compiler command: ``sysconfig``'s ``CC`` if installed, else ``cc``, else ``None``."""
    for command in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]):
        if command and shutil.which(command[0]):
            return command
    return None


def _cache_dir() -> Path | None:
    """``repro/`` in the user cache directory, or ``None`` if it is unusable or writable by others."""
    root = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    directory = root / "repro"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022 or not os.access(directory, os.W_OK):
        return None
    return directory


def _build(command: list[str], target: Path) -> bool:
    """Compile :data:`SOURCE` to ``target`` through a unique temporary name; ``True`` on success."""
    fd, partial = tempfile.mkstemp(dir=target.parent, prefix=target.stem + ".", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [*command, *FLAGS, "-o", partial, str(SOURCE)], capture_output=True, timeout=120, check=False
        )
        if done.returncode != 0:
            return False
        os.replace(partial, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _load(command: list[str], target: Path) -> ctypes.CDLL | None:
    """Load ``target``, compiling it first when it does not exist yet."""
    try:
        if not target.exists() and not _build(command, target):
            return None
        return ctypes.CDLL(str(target))
    except OSError:
        return None


def _library() -> ctypes.CDLL | None:
    command = compiler()
    if command is None:
        return None
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join([*command, *FLAGS, sysconfig.get_platform(), sys.implementation.cache_tag]).encode())
    name = f"olken-{digest.hexdigest()[:20]}.so"
    cache = _cache_dir()
    library = None if cache is None else _load(command, cache / name)
    if library is None:
        # No usable cache, or its library would not load: build privately.
        private = Path(tempfile.mkdtemp(prefix="repro-kernel-"))
        try:
            library = _load(command, private / name)
        finally:  # the mapping outlives the file
            shutil.rmtree(private, ignore_errors=True)
    return library


@functools.cache
def native_kernels() -> NativeKernels | None:
    """The native kernels, or ``None`` where this machine cannot build them (resolved once per process)."""
    library = _library()
    if library is None:
        return None
    olken = library.olken_stack_distances
    olken.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    olken.restype = ctypes.c_int
    shards = library.shards_sample
    shards.argtypes = (
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_uint64,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_void_p,
    )
    shards.restype = None
    bulk = library.crc32_bulk
    bulk.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.POINTER(ctypes.c_uint32))
    bulk.restype = ctypes.c_int64
    lanes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
    fifo = library.fifo_lanes
    fifo.argtypes = (*lanes, ctypes.c_void_p)
    fifo.restype = ctypes.c_int
    rand = library.random_lanes
    rand.argtypes = (*lanes, ctypes.c_void_p, ctypes.c_void_p)
    rand.restype = ctypes.c_int
    lru = library.lru_hits
    lru.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64)
    lru.restype = ctypes.c_int64
    parse = library.parse_labels
    parse.argtypes = (ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
    parse.restype = ctypes.c_int64
    hull = library.lower_hull
    hull.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    hull.restype = ctypes.c_int64

    # The kernels read and write C-contiguous buffers of the input's length;
    # these wrappers are the only code that hands them pointers.
    def stack_distances(trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        distances = np.empty(trace.size, dtype=np.int64)
        previous = np.empty(trace.size, dtype=np.int64)
        if olken(trace.ctypes.data, trace.size, distances.ctypes.data, previous.ctypes.data, None) != 0:
            raise MemoryError(f"stack-distance kernel could not allocate for {trace.size} references")
        return distances, previous

    def reuse_time_counts(trace: np.ndarray) -> np.ndarray:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        counts = np.zeros(trace.size + 1, dtype=np.int64)
        if olken(trace.ctypes.data, trace.size, None, None, counts.ctypes.data) != 0:
            raise MemoryError(f"reuse-time kernel could not allocate for {trace.size} references")
        return counts

    def sample_positions(
        trace: np.ndarray, tweaks: Sequence[int], mask: int, thresholds: Sequence[int]
    ) -> list[np.ndarray]:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        tweaks = np.asarray(tweaks, dtype=np.uint64)
        thresholds = np.asarray(thresholds, dtype=np.uint64)
        counts = np.empty(tweaks.size, dtype=np.int64)
        # Room for twice the expected sample plus slack, and one more pass with
        # room for every count when hot items overflow it.  A seeds x trace
        # buffer would be mostly untouched, and numpy backs arrays of 4 MiB
        # and up with huge pages, each zeroed whole on its first write.
        expected = trace.size * int(thresholds.max(initial=0)) // (mask + 1)
        capacity = min(trace.size, 2 * expected + 1024)
        while True:
            positions = np.empty((tweaks.size, capacity), dtype=np.int64)
            shards(
                trace.ctypes.data,
                trace.size,
                tweaks.size,
                tweaks.ctypes.data,
                mask,
                thresholds.ctypes.data,
                capacity,
                positions.ctypes.data,
                counts.ctypes.data,
            )
            if int(counts.max(initial=0)) <= capacity:
                break
            capacity = int(counts.max())
        # Copies, so the results do not pin the seeds x capacity scratch buffer.
        return [row[:count].copy() for row, count in zip(positions, counts.tolist())]

    def crc32(view: memoryview, value: int) -> int:
        running = ctypes.c_uint32(value)
        done = bulk(np.frombuffer(view, dtype=np.uint8).ctypes.data, view.nbytes, ctypes.byref(running))
        return zlib.crc32(view[done:], running.value)

    def fifo_lanes(trace: np.ndarray, capacities: np.ndarray, distinct: int) -> np.ndarray:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        capacities = np.ascontiguousarray(capacities, dtype=np.int64)
        hits = np.empty(capacities.size, dtype=np.int64)
        if fifo(trace.ctypes.data, trace.size, distinct, capacities.ctypes.data, capacities.size, hits.ctypes.data):
            raise MemoryError(f"FIFO lane kernel could not allocate for {distinct} items")
        return hits

    def random_lanes(trace: np.ndarray, capacities: np.ndarray, distinct: int, deviates: np.ndarray) -> np.ndarray:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        capacities = np.ascontiguousarray(capacities, dtype=np.int64)
        deviates = np.ascontiguousarray(deviates, dtype=np.float64)
        hits = np.empty(capacities.size, dtype=np.int64)
        args = (trace.ctypes.data, trace.size, distinct, capacities.ctypes.data, capacities.size)
        if rand(*args, deviates.ctypes.data, hits.ctypes.data):
            raise MemoryError(f"random lane kernel could not allocate for {distinct} items")
        return hits

    def lru_hits(trace: np.ndarray, capacity: int) -> int:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        if trace.size == 0:
            return 0
        hits = lru(trace.ctypes.data, trace.size, capacity)
        if hits < 0:
            raise MemoryError(f"LRU kernel could not allocate for {trace.size} references")
        return hits

    def parse_labels(data: bytes) -> tuple[np.ndarray, str | None] | None:
        # Every label ends a line, so the line count bounds the labels.
        labels = np.empty(data.count(b"\n") + data.count(b"\r") + 1, dtype=np.int64)
        name = np.empty(2, dtype=np.int64)
        count = parse(data, len(data), labels.ctypes.data, name.ctypes.data)
        if count < 0:
            return None
        labels.resize(count, refcheck=False)  # shrinks in place; nothing views the buffer yet
        start, end = name.tolist()
        return labels, None if start < 0 else data[start:end].decode("ascii").strip()

    def lower_convex_hull(misses: np.ndarray) -> np.ndarray:
        misses = np.ascontiguousarray(misses, dtype=np.float64)
        vertices = np.empty(misses.size, dtype=np.int64)
        return vertices[: hull(misses.ctypes.data, misses.size, vertices.ctypes.data)]

    return NativeKernels(
        stack_distances,
        reuse_time_counts,
        sample_positions,
        crc32,
        fifo_lanes,
        random_lanes,
        lru_hits,
        parse_labels,
        lower_convex_hull,
    )


def crc32(data, value: int = 0) -> int:
    """``zlib.crc32(data, value)`` of a contiguous buffer, its bulk folded natively where available."""
    native = native_kernels()
    view = memoryview(data).cast("B")
    if native is None or view.nbytes < 64:
        return zlib.crc32(view, value)
    return native.crc32(view, value)


def kernel_name() -> str:
    """``"native"`` when the C kernels serve this process, else ``"numpy"``."""
    return "numpy" if native_kernels() is None else "native"
