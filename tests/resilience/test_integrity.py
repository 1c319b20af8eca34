"""Trace-integrity chaos tests: damaged memmap traces fail loudly and early.

Every kind of on-disk damage — truncation, bit-flips, a missing column, a
dtype swap — must surface as a :class:`~repro.resilience.TraceIntegrityError`
naming the file and the expected vs. found values at *open* time, instead of
an unrelated numpy error deep inside a replay.
"""

from __future__ import annotations

import json
import os

import pytest

import numpy as np

from repro.resilience import TraceIntegrityError
from repro.resilience.faults import corrupt_trace_column, truncate_trace_column
from repro.trace import streaming
from repro.trace.streaming import (
    create_memmap_trace,
    open_memmap_trace,
    verify_memmap_trace,
    write_trace_manifest,
)

LENGTH = 256


@pytest.fixture
def stem(tmp_path):
    """A healthy flushed memmap trace (columns + integrity sidecar)."""
    stem = tmp_path / "trace"
    trace = create_memmap_trace(stem, LENGTH)
    rng = np.random.default_rng(1)
    trace.fill(0, rng.integers(0, 500, LENGTH), rng.integers(0, 3, LENGTH))
    trace.flush()
    return stem


class TestHealthyTrace:
    def test_flush_writes_the_sidecar_manifest(self, stem):
        manifest = json.loads(stem.with_name("trace.manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema"] == 1
        assert set(manifest["columns"]) == {"items", "tenants"}
        for column in manifest["columns"].values():
            assert column["length"] == LENGTH
            assert column["dtype"] == "int64"
            assert isinstance(column["crc32"], int)

    def test_verified_open_round_trips(self, stem):
        trace = open_memmap_trace(stem)
        assert len(trace) == LENGTH
        verify_memmap_trace(stem)  # idempotent and quiet

    def test_legacy_trace_without_manifest_still_opens(self, stem):
        stem.with_name("trace.manifest.json").unlink()
        trace = open_memmap_trace(stem)  # structural checks only
        assert len(trace) == LENGTH


class TestDamage:
    def test_corruption_fails_the_crc(self, stem):
        corrupt_trace_column(stem, "items", seed=2)
        with pytest.raises(TraceIntegrityError) as excinfo:
            open_memmap_trace(stem)
        message = str(excinfo.value)
        assert "trace.items.npy" in message
        assert "expected" in message and "found" in message
        assert excinfo.value.expected != excinfo.value.found

    def test_truncation_is_caught(self, stem):
        truncate_trace_column(stem, "tenants", drop=3)
        with pytest.raises(TraceIntegrityError, match="trace.tenants.npy"):
            open_memmap_trace(stem)

    def test_truncation_after_the_size_check_fails_the_crc(self, tmp_path, monkeypatch):
        # The file passes the size check, then loses its tail before it is
        # hashed; it is larger than the reader's buffer, so the tail is read.
        stem = tmp_path / "trace"
        trace = create_memmap_trace(stem, 50_000)
        trace.fill(0, np.arange(50_000), np.zeros(50_000, dtype=np.int64))
        trace.flush()
        file = stem.with_name("trace.tenants.npy")
        crc32_of_handle = streaming._crc32_of_handle

        def truncate_then_hash(handle):
            if os.fstat(handle.fileno()).st_ino == file.stat().st_ino:
                os.truncate(file, file.stat().st_size - 5)
            return crc32_of_handle(handle)

        monkeypatch.setattr(streaming, "_crc32_of_handle", truncate_then_hash)
        with pytest.raises(TraceIntegrityError, match="checksum mismatch"):
            verify_memmap_trace(stem)

    def test_missing_column_is_named(self, stem):
        stem.with_name("trace.items.npy").unlink()
        with pytest.raises(TraceIntegrityError, match="missing"):
            open_memmap_trace(stem)

    def test_verify_false_skips_the_checks(self, stem):
        corrupt_trace_column(stem, "items", seed=2)
        trace = open_memmap_trace(stem, verify=False)  # escape hatch for salvage
        assert len(trace) == LENGTH

    def test_stale_manifest_after_silent_rewrite(self, stem):
        # Rewrite a column without flushing through StreamingTrace: the
        # sidecar no longer matches and the next open must refuse.
        file = stem.with_name("trace.items.npy")
        column = np.lib.format.open_memmap(file, mode="r+")
        column[0] += 1
        column.flush()
        del column
        with pytest.raises(TraceIntegrityError):
            open_memmap_trace(stem)
        # re-blessing the data refreshes the sidecar and the trace opens again
        write_trace_manifest(stem)
        assert len(open_memmap_trace(stem)) == LENGTH

    def test_manifest_schema_mismatch(self, stem):
        manifest_path = stem.with_name("trace.manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema"] = 42
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(TraceIntegrityError, match="schema"):
            open_memmap_trace(stem)

    def test_column_length_disagreement(self, tmp_path):
        stem = tmp_path / "trace"
        trace = create_memmap_trace(stem, 32)
        trace.fill(0, np.arange(32), np.zeros(32, dtype=np.int64))
        trace.flush()
        # grow one column behind the manifest's back
        np.save(stem.with_name("trace.items.npy"), np.arange(40))
        with pytest.raises(TraceIntegrityError):
            open_memmap_trace(stem)


class TestFillBounds:
    def test_fill_past_the_end_names_the_backing_file(self, stem):
        trace = open_memmap_trace(stem)
        with pytest.raises(ValueError) as excinfo:
            trace.fill(LENGTH - 2, np.arange(5), np.zeros(5, dtype=np.int64))
        message = str(excinfo.value)
        assert f"does not fit a {LENGTH}-reference trace" in message
        assert "trace.items.npy" in message

    def test_fill_negative_start(self, stem):
        trace = open_memmap_trace(stem)
        with pytest.raises(ValueError, match="does not fit"):
            trace.fill(-1, np.arange(2), np.zeros(2, dtype=np.int64))
