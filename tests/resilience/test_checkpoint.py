"""Unit tests for the crash-safe checkpoint store."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from unittest import mock

import pytest

import numpy as np

from repro.resilience import (
    CheckpointError,
    CheckpointIntegrityError,
    latest_step,
    load_checkpoint,
    write_checkpoint,
)
from repro.resilience import checkpoint


class TestRoundTrip:
    def test_state_round_trips(self, tmp_path):
        state = {"position": 1500, "array": np.arange(5), "nested": {"a": (1, 2)}}
        path = write_checkpoint(tmp_path, 3, state, fingerprint="fp")
        assert path.name == "step-00000003.ckpt"
        loaded = load_checkpoint(tmp_path, fingerprint="fp")
        assert loaded.step == 3
        assert loaded.path == path
        assert loaded.state["position"] == 1500
        np.testing.assert_array_equal(loaded.state["array"], np.arange(5))
        assert loaded.state["nested"] == {"a": (1, 2)}

    def test_latest_step_tracks_newest(self, tmp_path):
        assert latest_step(tmp_path) is None
        write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        write_checkpoint(tmp_path, 2, {"s": 2}, fingerprint="fp")
        assert latest_step(tmp_path) == 2
        assert load_checkpoint(tmp_path).state == {"s": 2}

    def test_load_specific_step(self, tmp_path):
        for step in (1, 2, 3):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp")
        assert load_checkpoint(tmp_path, step=2).state == {"s": 2}
        with pytest.raises(CheckpointError, match="no step 9"):
            load_checkpoint(tmp_path, step=9)

    def test_rewriting_a_step_replaces_it(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"s": "old"}, fingerprint="fp")
        write_checkpoint(tmp_path, 1, {"s": "new"}, fingerprint="fp")
        assert load_checkpoint(tmp_path, step=1).state == {"s": "new"}

    def test_no_tmp_files_left_behind(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        assert not list(tmp_path.glob("*.tmp"))


class TestPruning:
    def test_keep_bounds_the_store(self, tmp_path):
        for step in range(1, 7):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp")
        snapshots = sorted(p.name for p in tmp_path.glob("step-*.ckpt"))
        assert snapshots == ["step-00000004.ckpt", "step-00000005.ckpt", "step-00000006.ckpt"]
        assert latest_step(tmp_path) == 6

    def test_a_new_process_prunes_snapshots_it_did_not_write(self, tmp_path, monkeypatch):
        for step in range(1, 4):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp")
        monkeypatch.setattr(checkpoint, "_OPEN_STORES", {})  # as a resumed run in a fresh process
        write_checkpoint(tmp_path, 4, {"s": 4}, fingerprint="fp")
        assert [p.name for p in sorted(tmp_path.glob("step-*.ckpt"))] == [
            "step-00000002.ckpt",
            "step-00000003.ckpt",
            "step-00000004.ckpt",
        ]

    def test_a_store_removed_mid_run_is_started_afresh(self, tmp_path):
        store = tmp_path / "store"
        write_checkpoint(store, 1, {"s": 1}, fingerprint="fp")
        shutil.rmtree(store)
        write_checkpoint(store, 2, {"s": 2}, fingerprint="fp")
        assert latest_step(store) == 2
        assert load_checkpoint(store, fingerprint="fp").state == {"s": 2}

    def test_a_pruned_snapshot_file_is_recycled_and_cut_to_size(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"s": "x" * 10_000}, fingerprint="fp")
        inode = (tmp_path / "step-00000001.ckpt").stat().st_ino
        for step in (2, 3):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp")
        replace = checkpoint.os.replace
        seen = []

        def watching_replace(source, target):
            # While the pruned file is recycled, two other snapshots remain to resume from.
            seen.append((os.path.basename(source), sorted(p.name for p in tmp_path.glob("step-*.ckpt"))))
            replace(source, target)

        with mock.patch.object(checkpoint.os, "replace", watching_replace):
            write_checkpoint(tmp_path, 4, {"s": 4}, fingerprint="fp")
        assert seen[0] == ("step-00000001.ckpt", ["step-00000001.ckpt", "step-00000002.ckpt", "step-00000003.ckpt"])
        assert seen[1][1] == ["step-00000002.ckpt", "step-00000003.ckpt"]
        assert (tmp_path / "step-00000004.ckpt").stat().st_ino == inode
        assert load_checkpoint(tmp_path, fingerprint="fp").state == {"s": 4}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "MANIFEST.json",
            "step-00000002.ckpt",
            "step-00000003.ckpt",
            "step-00000004.ckpt",
        ]

    def test_a_longer_leftover_tmp_file_is_cut_to_size(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        (tmp_path / "step-00000002.ckpt.tmp").write_bytes(b"\xff" * 10_000)  # as a crashed write leaves it
        write_checkpoint(tmp_path, 2, {"s": 2}, fingerprint="fp")
        assert load_checkpoint(tmp_path, step=2).state == {"s": 2}
        assert not list(tmp_path.glob("*.tmp"))


class TestRejection:
    def test_fingerprint_mismatch_on_write(self, tmp_path):
        write_checkpoint(tmp_path, 1, {}, fingerprint="run-a")
        with pytest.raises(CheckpointError, match="different run"):
            write_checkpoint(tmp_path, 2, {}, fingerprint="run-b")

    def test_fingerprint_mismatch_on_load(self, tmp_path):
        write_checkpoint(tmp_path, 1, {}, fingerprint="run-a")
        with pytest.raises(CheckpointError, match="different run"):
            load_checkpoint(tmp_path, fingerprint="run-b")

    def test_missing_store(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            load_checkpoint(tmp_path / "nope")

    def test_corrupted_snapshot_fails_checksum(self, tmp_path):
        path = write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointIntegrityError) as excinfo:
            load_checkpoint(tmp_path, fingerprint="fp")
        message = str(excinfo.value)
        assert path.name in message
        assert "expected" in message and "found" in message
        error = excinfo.value
        assert error.path == str(path)
        assert error.expected == json.loads(payload[: payload.index(b"\n")])["sha256"]
        assert error.found == hashlib.sha256(bytes(payload[payload.index(b"\n") + 1 :])).hexdigest()

    def test_deleted_snapshot_is_reported(self, tmp_path):
        path = write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        path.unlink()
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path, fingerprint="fp")

    def test_unreadable_manifest(self, tmp_path):
        write_checkpoint(tmp_path, 1, {}, fingerprint="fp")
        (tmp_path / "MANIFEST.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointIntegrityError, match="unreadable manifest"):
            load_checkpoint(tmp_path)

    def test_schema_mismatch(self, tmp_path):
        write_checkpoint(tmp_path, 1, {}, fingerprint="fp")
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["schema"] = 99
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(tmp_path)

    def test_negative_step_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="step"):
            write_checkpoint(tmp_path, -1, {}, fingerprint="fp")
