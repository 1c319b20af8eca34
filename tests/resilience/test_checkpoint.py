"""Unit tests for the crash-safe checkpoint store."""

from __future__ import annotations

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
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp", keep=3)
        snapshots = sorted(p.name for p in tmp_path.glob("step-*.ckpt"))
        assert snapshots == ["step-00000004.ckpt", "step-00000005.ckpt", "step-00000006.ckpt"]
        assert latest_step(tmp_path) == 6

    def test_a_new_process_prunes_snapshots_it_did_not_write(self, tmp_path, monkeypatch):
        for step in range(1, 4):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp", keep=3)
        monkeypatch.setattr(checkpoint, "_OPEN_STORES", {})  # as a resumed run in a fresh process
        write_checkpoint(tmp_path, 4, {"s": 4}, fingerprint="fp", keep=3)
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
        write_checkpoint(tmp_path, 1, {"s": "x" * 10_000}, fingerprint="fp", keep=3)
        inode = (tmp_path / "step-00000001.ckpt").stat().st_ino
        for step in (2, 3, 4):
            write_checkpoint(tmp_path, step, {"s": step}, fingerprint="fp", keep=3)
        assert (tmp_path / "step-00000004.ckpt").stat().st_ino == inode
        assert load_checkpoint(tmp_path, fingerprint="fp").state == {"s": 4}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "MANIFEST.json",
            "step-00000002.ckpt",
            "step-00000003.ckpt",
            "step-00000004.ckpt",
        ]

    def test_a_lone_snapshot_is_not_recycled(self, tmp_path):
        # With keep=1 the old snapshot is the only one to resume from until the new one is in place.
        write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp", keep=1)
        inode = (tmp_path / "step-00000001.ckpt").stat().st_ino
        replace = checkpoint.os.replace
        seen = []

        def watching_replace(source, target):
            seen.append((os.path.basename(source), os.path.exists(tmp_path / "step-00000001.ckpt")))
            replace(source, target)

        with mock.patch.object(checkpoint.os, "replace", watching_replace):
            write_checkpoint(tmp_path, 2, {"s": 2}, fingerprint="fp", keep=1)
        assert seen == [("step-00000002.ckpt.tmp", True)]
        assert (tmp_path / "step-00000002.ckpt").stat().st_ino != inode
        assert [p.name for p in tmp_path.glob("step-*.ckpt")] == ["step-00000002.ckpt"]

    def test_a_longer_leftover_tmp_file_is_cut_to_size(self, tmp_path):
        write_checkpoint(tmp_path, 1, {"s": 1}, fingerprint="fp")
        (tmp_path / "step-00000002.ckpt.tmp").write_bytes(b"\xff" * 10_000)  # as a crashed write leaves it
        write_checkpoint(tmp_path, 2, {"s": 2}, fingerprint="fp")
        assert load_checkpoint(tmp_path, step=2).state == {"s": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            write_checkpoint(tmp_path, 1, {}, fingerprint="fp", keep=0)


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
        import json

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
