"""Crash-safe checkpoints: atomic snapshots a killed run resumes from.

A checkpoint *store* is one directory holding numbered snapshot files plus a
single ``MANIFEST.json``.  The manifest is written **once**, when the store
is created — schema version, run *fingerprint*, command, and
:class:`repro.obs.RunManifest` provenance — and never rewritten, so the
per-snapshot write path touches exactly one file.

Each snapshot is self-describing: a one-line JSON header (step number,
SHA-256 and byte count of the payload) followed by the pickled state, the
whole file written to a ``.tmp`` and ``os.replace``\\ d into place.  Readers
never see a half-written snapshot — a crash mid-write leaves only a
``.tmp`` file that discovery ignores — and :func:`load_checkpoint` only
trusts payloads whose recorded checksum matches the bytes on disk; anything
else raises :class:`~repro.resilience.errors.CheckpointIntegrityError`
naming the file and the expected vs. found digest.

The *fingerprint* (:func:`fingerprint`) pins a store to one logical run
(job knobs + input contents).  Resuming with a different configuration is a
:class:`~repro.resilience.errors.CheckpointError`, not a silently wrong
bit-for-bit "resumption" of somebody else's state.

Examples
--------
>>> import tempfile
>>> store = tempfile.mkdtemp()
>>> path = write_checkpoint(store, 3, {"position": 1500}, fingerprint="demo-v1")
>>> latest_step(store)
3
>>> load_checkpoint(store, fingerprint="demo-v1").state
{'position': 1500}
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..obs import get_registry
from .errors import CheckpointError, CheckpointIntegrityError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "fingerprint",
    "latest_step",
    "load_checkpoint",
    "write_checkpoint",
]

#: Schema version of the store layout; bumped on incompatible changes (2: an
#: online snapshot leaves out the sketch windows and the curves a resume
#: re-derives from the trace).
CHECKPOINT_SCHEMA = 2

_MANIFEST = "MANIFEST.json"


@dataclass(frozen=True)
class Checkpoint:
    """One loaded snapshot: its step number, restored state, and file path."""

    step: int
    state: Any
    path: Path


def fingerprint(kind: str, basis: dict, arrays: dict[str, np.ndarray]) -> str:
    """Stable identity of one logical run, ``"<kind>/1/<digest>"``.

    ``basis`` holds the JSON-serialisable knobs that define the run; every
    entry of ``arrays`` adds the CRC-32 of its int64 contents as
    ``<name>_crc``.  One SHA-256 over the sorted JSON covers it all, so a
    store resumed under any different configuration or input is rejected up
    front instead of silently continuing somebody else's state.
    """
    from ..cache._native import crc32  # keeps ``import repro.resilience`` free of the cache package

    basis = dict(basis)
    for name, array in arrays.items():
        basis[f"{name}_crc"] = crc32(np.ascontiguousarray(array, dtype=np.int64))
    digest = hashlib.sha256(json.dumps(basis, sort_keys=True).encode("utf-8")).hexdigest()
    return f"{kind}/1/{digest[:32]}"


def _atomic_write(path: str, *chunks: bytes, durable: bool = False) -> None:
    """Write ``chunks`` to ``path + ".tmp"`` and rename it over ``path``.

    Plain ``os`` calls: a snapshot is a handful of syscalls, and it runs
    between epochs whose work has evicted every cache, where each extra
    layer of Python file objects costs tens of microseconds.
    """
    tmp = path + ".tmp"
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(descriptor, view) :]
        if durable:
            os.fsync(descriptor)
    finally:
        os.close(descriptor)
    os.replace(tmp, path)


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointIntegrityError(str(manifest_path), reason=f"unreadable manifest: {error}") from error
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema mismatch in {manifest_path}: "
            f"store has schema {schema!r}, this build reads {CHECKPOINT_SCHEMA}"
        )
    return manifest


def _check_fingerprint(directory: Path, fingerprint: str, *, verb: str) -> None:
    manifest = _read_manifest(directory)
    if manifest.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint store {directory} belongs to a different run "
            f"(fingerprint {manifest.get('fingerprint')!r}, this run is {fingerprint!r}); "
            f"point --checkpoint at a fresh directory to {verb}"
        )


def _snapshot_steps(directory: str | Path) -> list[tuple[int, str]]:
    """All complete snapshots on disk as (step, file name), sorted by step."""
    found = []
    for name in os.listdir(directory):
        digits = name[len("step-") : -len(".ckpt")]
        if name.startswith("step-") and name.endswith(".ckpt") and digits.isdigit():
            found.append((int(digits), name))
    found.sort()
    return found


#: Per store directory, what this process last learned of it: the manifest's
#: (inode, size, mtime) and fingerprint when checked, and the snapshots on
#: disk then plus those written since, as (step, file name), ascending.  One
#: stat of the manifest per snapshot validates it; a store whose manifest
#: changed or vanished is checked (or created) and listed again.  The later
#: snapshots of a run so skip re-reading the manifest and listing the
#: directory, which matters because they run between epochs.
_OPEN_STORES: dict[str, tuple[tuple[int, int, int], str, list[tuple[int, str]]]] = {}


def _signature(path: str) -> tuple[int, int, int] | None:
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def _open_store(root: str, fingerprint: str, command: str, durable: bool) -> list[tuple[int, str]]:
    """Check (or create) the store at ``root`` for ``fingerprint``; return its snapshots."""
    manifest_path = os.path.join(root, _MANIFEST)
    if os.path.exists(manifest_path):
        _check_fingerprint(Path(root), fingerprint, verb="start fresh")
    else:
        from ..obs import RunManifest

        os.makedirs(root, exist_ok=True)
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "command": command,
            "provenance": dataclasses.asdict(RunManifest.collect(command, argv=[], seed=None)),
        }
        text = json.dumps(manifest, indent=2, default=str) + "\n"
        _atomic_write(manifest_path, text.encode("utf-8"), durable=durable)
    snapshots = _snapshot_steps(root)
    _OPEN_STORES[root] = (_signature(manifest_path), fingerprint, snapshots)
    return snapshots


def write_checkpoint(
    directory: str | Path,
    step: int,
    state: Any,
    *,
    fingerprint: str,
    command: str = "checkpoint",
    keep: int = 3,
    durable: bool = False,
) -> Path:
    """Atomically persist one self-checksummed snapshot.

    ``state`` is pickled (numpy arrays, frozen dataclasses and plain
    containers all round-trip); ``fingerprint`` names the logical run the
    store belongs to — a store started by a different run is rejected rather
    than overwritten.  The newest ``keep`` snapshots are retained, older
    files are pruned.  Returns the snapshot's path.

    The tmp-write + ``os.replace`` protocol makes every snapshot safe
    against a *process* crash (the kill/retry scenarios the chaos suite
    exercises) without any fsync; pass ``durable=True`` to additionally
    fsync the file, surviving an OS crash or power loss at ~1ms extra per
    write.
    """
    root = os.fspath(directory)
    step = int(step)
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if int(keep) < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")

    known = _OPEN_STORES.get(root)
    signature = _signature(os.path.join(root, _MANIFEST))
    if known is not None and signature is not None and known[:2] == (signature, fingerprint):
        snapshots = known[2]
    else:
        snapshots = _open_store(root, fingerprint, command, durable)

    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    # The one-line JSON header, formatted directly: every field is a number
    # or a hex digest.
    header = f'{{"step": {step}, "sha256": "{hashlib.sha256(payload).hexdigest()}", "bytes": {len(payload)}}}\n'
    name = f"step-{step:08d}.ckpt"
    _atomic_write(os.path.join(root, name), header.encode("ascii"), payload, durable=durable)

    if (step, name) not in snapshots:
        bisect.insort(snapshots, (step, name))
    for _, stale in snapshots[: -int(keep)]:
        try:
            os.unlink(os.path.join(root, stale))
        except FileNotFoundError:
            pass
    del snapshots[: -int(keep)]

    registry = get_registry()
    if registry.enabled:
        registry.counter("checkpoint.writes").inc()
        registry.counter("checkpoint.bytes").add(len(payload))
        registry.gauge("checkpoint.step").set(step)
    return Path(root, name)


def latest_step(directory: str | Path) -> int | None:
    """The newest on-disk step, or ``None`` for an absent/empty store."""
    directory = Path(directory)
    if not (directory / _MANIFEST).exists():
        return None
    _read_manifest(directory)
    snapshots = _snapshot_steps(directory)
    return snapshots[-1][0] if snapshots else None


def load_checkpoint(directory: str | Path, *, fingerprint: str | None = None, step: int | None = None) -> Checkpoint:
    """Load the newest (or a specific ``step``'s) verified snapshot.

    Verifies the manifest schema, the run ``fingerprint`` (when given) and
    the snapshot's own header — byte count and SHA-256 — before unpickling;
    any mismatch raises a structured
    :class:`~repro.resilience.errors.CheckpointError` /
    :class:`~repro.resilience.errors.CheckpointIntegrityError` instead of
    resuming from bad state.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if fingerprint is not None and manifest.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint store {directory} belongs to a different run "
            f"(fingerprint {manifest.get('fingerprint')!r}, expected {fingerprint!r})"
        )
    snapshots = [(found, directory / name) for found, name in _snapshot_steps(directory)]
    if not snapshots:
        raise CheckpointError(f"checkpoint store {directory} has no recorded snapshots")
    if step is not None:
        matches = [(found, path) for found, path in snapshots if found == int(step)]
        if not matches:
            known = [found for found, _ in snapshots]
            raise CheckpointError(f"no step {step} in {directory}; recorded steps: {known}")
        found_step, snapshot = matches[0]
    else:
        found_step, snapshot = snapshots[-1]

    raw = snapshot.read_bytes()
    newline = raw.find(b"\n")
    try:
        header = json.loads(raw[:newline]) if newline > 0 else None
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or not {"step", "sha256", "bytes"} <= set(header):
        raise CheckpointIntegrityError(str(snapshot), reason="unreadable snapshot header")
    payload = raw[newline + 1 :]
    if len(payload) != int(header["bytes"]):
        raise CheckpointIntegrityError(
            str(snapshot),
            reason="snapshot payload truncated",
            expected=f"{int(header['bytes'])} bytes",
            found=f"{len(payload)} bytes",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["sha256"]:
        raise CheckpointIntegrityError(
            str(snapshot), reason="snapshot checksum mismatch", expected=header["sha256"], found=digest
        )
    state = pickle.loads(payload)
    registry = get_registry()
    if registry.enabled:
        registry.counter("checkpoint.loads").inc()
        registry.gauge("checkpoint.resumed_step").set(found_step)
    return Checkpoint(step=found_step, state=state, path=snapshot)
