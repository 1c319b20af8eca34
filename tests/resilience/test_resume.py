"""Checkpoint/resume chaos tests: killed runs continue bit-identically.

The headline guarantee of the resilience layer: a replay (or sweep) that is
interrupted — by an injected crash or a real ``SIGKILL`` — and restarted
with ``resume=True`` produces rows, summaries and allocations **exactly**
equal to the uninterrupted ``workers=1`` run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import numpy as np
from oracles import replay_lanes

from repro.online import replay as replay_module
from repro.online.replay import OnlineJob, replay_fingerprint, run_replay
from repro.resilience import CHECKPOINT_SCHEMA, CheckpointError, load_checkpoint, write_checkpoint
from repro.resilience.faults import FaultInjected, FaultPlan, FaultSpec, install_faults, transient
from repro.sim.sweep import SweepJob, run_sweep
from repro.trace.drift import three_phase_pair

LENGTH_PER_PHASE = 2_000
JOB = OnlineJob(budget=240, window=1_000, epoch=400, method="hull", rate=0.5, move_cost=1.0)


@pytest.fixture(scope="module")
def workload():
    return three_phase_pair(LENGTH_PER_PHASE, seed=7)


@pytest.fixture(scope="module")
def baseline(workload):
    """The uninterrupted workers=1 reference replay."""
    return run_replay(workload, JOB)


class TestReplayCheckpointing:
    def test_checkpointing_never_changes_the_result(self, workload, baseline, tmp_path):
        checkpointed = run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=2)
        assert checkpointed == baseline

    def test_resume_from_complete_store_matches(self, workload, baseline, tmp_path):
        run_replay(workload, JOB, checkpoint_dir=tmp_path)
        resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed.rows() == baseline.rows()
        assert resumed.summary() == baseline.summary()
        assert resumed.final_allocation == baseline.final_allocation

    def test_crash_then_resume_is_bit_identical(self, workload, baseline, tmp_path):
        # Crash right after the 3rd epoch's checkpoint lands on disk.
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=3, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed.epochs == baseline.epochs
        assert resumed.summary() == baseline.summary()
        assert resumed == baseline

    def test_resume_is_engine_faithful(self, workload, baseline, tmp_path):
        """A resumed run's lanes still agree with the per-event oracle."""
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=2, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed == baseline
        replay_lanes(workload, resumed, JOB)

    def test_resume_against_empty_store_runs_fresh(self, workload, baseline, tmp_path):
        resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed == baseline

    def test_resume_needs_a_directory(self, workload):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_replay(workload, JOB, resume=True)

    def test_wrong_job_is_rejected(self, workload, tmp_path):
        run_replay(workload, JOB, checkpoint_dir=tmp_path)
        other = OnlineJob(budget=250, window=1_000, epoch=400)
        with pytest.raises(CheckpointError, match="different run"):
            run_replay(workload, other, checkpoint_dir=tmp_path, resume=True)

    def test_fingerprint_separates_engines_and_jobs(self, workload):
        fingerprint = replay_fingerprint(workload, JOB)
        assert fingerprint == replay_fingerprint(workload, JOB)
        assert fingerprint != replay_fingerprint(workload, OnlineJob(budget=241, window=1_000, epoch=400))


class TestSnapshotLayout:
    """A snapshot holds the replay's progress, its lanes and its detectors, and nothing else."""

    def test_snapshot_keys_are_the_progress_lanes_and_detectors(self, workload, tmp_path):
        run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        keys = set(load_checkpoint(tmp_path).state)
        progress = {field.name for field in dataclasses.fields(replay_module._Progress)}
        assert keys == progress | {"lanes", "detectors"}
        assert keys == {
            "position",
            "phase",
            "settling",
            "epoch_index",
            "epoch_start",
            "epochs",
            "profiled_references",
            "reallocations",
            "phase_changes",
            "profile_failures",
            "lanes",
            "detectors",
        }

    def test_store_with_controller_counters_resumes(self, workload, baseline, tmp_path):
        # Earlier builds also stored the controller's evaluation counters,
        # which no output reads; such a store still resumes identically.
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=3, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path / "current", checkpoint_every=1)
        state = load_checkpoint(tmp_path / "current").state
        assert "controller" not in state
        state["controller"] = {"evaluations": 3, "applications": 2}
        earlier = tmp_path / "earlier"
        write_checkpoint(earlier, 3, state, fingerprint=replay_fingerprint(workload, JOB), command="online")
        assert run_replay(workload, JOB, checkpoint_dir=earlier, resume=True) == baseline


_RESUME_JOBS = {
    "decayed": OnlineJob(budget=240, window=1_000, epoch=400, rate=0.5, decay=0.002, threshold=0.01),
    "window-below-epoch": OnlineJob(budget=240, window=350, epoch=400, rate=1.0, threshold=0.01),
    "window-over-many-stops": OnlineJob(
        budget=240, window=2_500, epoch=300, rate=0.7, hysteresis=2, unit=8, threshold=0.01
    ),
}


class TestResumeRederivesWindows:
    """Resuming after a snapshot rebuilds the sketch windows and detector references exactly."""

    @pytest.mark.parametrize("case", list(_RESUME_JOBS), ids=list(_RESUME_JOBS))
    def test_resume_after_every_other_snapshot(self, workload, case, tmp_path):
        job = _RESUME_JOBS[case]
        reference = run_replay(workload, job)
        assert reference.phase_changes > 0  # detector references move off the first epoch
        for step in range(1, len(reference.epochs), 2):
            store = tmp_path / f"step-{step}"
            plan = FaultPlan((FaultSpec(site="online.checkpoint", index=step, kind="error"),))
            with install_faults(plan), pytest.raises(FaultInjected):
                run_replay(workload, job, checkpoint_dir=store, checkpoint_every=1)
            resumed = run_replay(workload, job, checkpoint_dir=store, resume=True)
            assert resumed == reference, f"resumed after snapshot {step}"

    def test_resume_profiles_each_anchor_once(self, workload, baseline, tmp_path, monkeypatch):
        """Detector references taken at one epoch end come from one batched profile on resume."""
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=1, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        state = load_checkpoint(tmp_path).state
        anchors = [detector["reference"] for detector in state["detectors"] if detector["reference"] is not None]
        assert len(anchors) > len(set(anchors))  # at least two tenants share an anchor
        calls, profile = [], replay_module._windowed_profile

        def counted(windows, end, *rest):
            calls.append(end)
            return profile(windows, end, *rest)

        monkeypatch.setattr(replay_module, "_windowed_profile", counted)
        assert run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True) == baseline
        assert sorted(end for end in calls if end <= state["position"]) == sorted(set(anchors))


class TestReplaySigkill:
    def test_sigkilled_replay_resumes_bit_identical(self, workload, baseline, tmp_path):
        """A real SIGKILL (self-inflicted, deterministically, after the 3rd
        checkpoint write) — then an in-process resume must match the
        uninterrupted reference exactly."""
        script = textwrap.dedent(
            f"""
            import sys
            from repro.online.replay import OnlineJob, run_replay
            from repro.resilience.faults import FaultPlan, FaultSpec, install_faults
            from repro.trace.drift import three_phase_pair

            workload = three_phase_pair({LENGTH_PER_PHASE}, seed=7)
            job = OnlineJob(budget=240, window=1000, epoch=400, method="hull", rate=0.5, move_cost=1.0)
            plan = FaultPlan((FaultSpec(site="online.checkpoint", index=3, kind="kill"),))
            with install_faults(plan):
                run_replay(workload, job, checkpoint_dir=sys.argv[1], checkpoint_every=1)
            raise SystemExit("the kill fault never fired")
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert list(tmp_path.glob("step-*.ckpt")), "no checkpoint survived the kill"
        resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed == baseline


class TestProfileHold:
    def test_failed_extraction_holds_last_known_good(self, workload, baseline):
        # Tenant 1's profile extraction fails on every epoch after the first
        # two; the replay must finish, hold the allocation on failed epochs,
        # and count every failure.
        epochs = len(baseline.epochs)
        plan = FaultPlan((transient("online.profile", 1),))
        with install_faults(plan):
            held = run_replay(workload, JOB)
        assert held.profile_failures == epochs
        assert held.accesses == baseline.accesses
        # the scoreboard stays schema-stable: failures are not a summary key
        assert "profile_failures" not in held.summary()
        assert set(held.epochs[0].row()) == set(baseline.epochs[0].row())

    def test_failed_epochs_never_reallocate(self, workload):
        plan = FaultPlan((transient("online.profile", 0),))  # every epoch, tenant 0
        with install_faults(plan):
            held = run_replay(workload, JOB)
        # no controller consults at all: the initial split never moves
        assert held.reallocations == 0
        assert all(not epoch.reallocated for epoch in held.epochs)

    def test_metrics_series_flags_failed_epochs(self, workload):
        from repro.obs import MetricsRegistry, recording

        registry = MetricsRegistry()
        plan = FaultPlan((transient("online.profile", 1),))
        with recording(registry), install_faults(plan):
            run_replay(workload, JOB)
        rows = [r["row"] for r in registry.records() if r.get("type") == "series" and r.get("name") == "online.epochs"]
        assert rows
        assert all(row["profile_failures"] == 1 for row in rows)


class _FailAtEpochs:
    """A fault plan failing ``tenant``'s profile extraction at the given epochs.

    Epochs are counted from ``first``, the epoch a (resumed) run starts at;
    ``crash_step`` raises right after that checkpoint is written.
    """

    def __init__(self, tenant, epochs, *, first=0, crash_step=None):
        self.tenant, self.epochs, self.epoch, self.crash_step = tenant, set(epochs), first, crash_step

    def fire(self, site, index, attempt=1):
        if site == "online.profile" and index == self.tenant:
            self.epoch += 1
            if self.epoch - 1 in self.epochs:
                raise FaultInjected(f"injected fault: profile of tenant {index}")
        if site == "online.checkpoint" and index == self.crash_step:
            raise FaultInjected(f"injected fault: after checkpoint {index}")


class TestResumeAfterFailedExtraction:
    """A snapshot stores no profile, failed extraction or not; resume re-derives them all."""

    def test_always_failing_tenant(self, workload, tmp_path):
        faults = FaultPlan((transient("online.profile", 1),))
        with install_faults(faults):
            reference = run_replay(workload, JOB)
        crash = FaultPlan((*faults.specs, FaultSpec(site="online.checkpoint", index=3, kind="error")))
        with install_faults(crash), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        assert "held_profiles" not in load_checkpoint(tmp_path).state
        with install_faults(faults):
            resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed.profile_failures == reference.profile_failures == len(reference.epochs)
        assert resumed.rows() == reference.rows()
        assert resumed.summary() == reference.summary()
        assert resumed == reference

    def test_failure_in_the_snapshot_epoch_resumes_identically(self, workload, tmp_path):
        # Tenant 0 fails in epochs 3 (snapshot step 4) and 4 (after the resume).
        with install_faults(_FailAtEpochs(0, {3, 4})):
            reference = run_replay(workload, JOB)
        with install_faults(_FailAtEpochs(0, {3, 4}, crash_step=4)), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        assert "held_profiles" not in load_checkpoint(tmp_path).state
        with install_faults(_FailAtEpochs(0, {3, 4}, first=4)):
            resumed = run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)
        assert resumed.profile_failures == reference.profile_failures == 2
        assert resumed.rows() == reference.rows()
        assert resumed == reference

    @pytest.mark.parametrize(
        "failing",
        [
            # Tenant 0 fails in the epoch of the resumed snapshot (step 4) too.
            {3, 4},
            # Tenant 0 extracts fine in the epoch of the resumed snapshot.
            {4},
        ],
        ids=["stored", "re-derived"],
    )
    def test_resumed_run_writes_the_same_next_snapshot(self, workload, tmp_path, failing):
        # Tenant 0 fails in epoch 4: snapshot 5, written after a resume from
        # snapshot 4, matches the uninterrupted run's.
        uninterrupted, resumed = tmp_path / "uninterrupted", tmp_path / "resumed"
        with install_faults(_FailAtEpochs(0, failing, crash_step=5)), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=uninterrupted, checkpoint_every=1)
        with install_faults(_FailAtEpochs(0, failing, crash_step=4)), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=resumed, checkpoint_every=1)
        with install_faults(_FailAtEpochs(0, failing, first=4, crash_step=5)), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=resumed, checkpoint_every=1, resume=True)
        want, got = (load_checkpoint(store, step=5).state for store in (uninterrupted, resumed))
        assert "held_profiles" not in got
        assert got == want

    def test_healthy_snapshots_store_no_profiles(self, workload, tmp_path):
        run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        state = load_checkpoint(tmp_path).state
        assert "held_profiles" not in state
        # No sketch window and no detector curve either: only the epoch end
        # each reference was taken at, which a resume re-derives it from.
        assert "sketches" not in state
        assert all(isinstance(detector["reference"], int) for detector in state["detectors"])

    def test_store_of_the_previous_layout_is_rejected(self, workload, tmp_path):
        # Schema 1 snapshots held every tenant's profile; this build no longer reads them.
        plan = FaultPlan((FaultSpec(site="online.checkpoint", index=2, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, checkpoint_every=1)
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["schema"] == CHECKPOINT_SCHEMA == 2
        manifest["schema"] = 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError, match="schema mismatch.*schema 1, this build reads 2"):
            run_replay(workload, JOB, checkpoint_dir=tmp_path, resume=True)


class TestSweepResume:
    def _job(self):
        rng = np.random.default_rng(3)
        trace = rng.zipf(1.4, size=10_000) % 500
        return SweepJob(
            trace=trace,
            name="chaos",
            policies=("lru", "fifo", "random", "set-associative"),
            capacities=tuple(range(8, 129, 8)),
            ways=4,
            seed=5,
        )

    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        job = self._job()
        reference = run_sweep(job)
        plan = FaultPlan((FaultSpec(site="sweep.checkpoint", index=2, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_sweep(job, checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed = run_sweep(job, checkpoint_dir=tmp_path, resume=True)
        for policy in job.policies:
            assert resumed[policy].capacities == reference[policy].capacities
            assert resumed[policy].hits == reference[policy].hits

    def test_resume_under_different_worker_count(self, tmp_path):
        job = self._job()
        reference = run_sweep(job)
        plan = FaultPlan((FaultSpec(site="sweep.checkpoint", index=1, kind="error"),))
        with install_faults(plan), pytest.raises(FaultInjected):
            run_sweep(job, checkpoint_dir=tmp_path, checkpoint_every=1)
        resumed = run_sweep(job, workers=2, checkpoint_dir=tmp_path, resume=True)
        for policy in job.policies:
            assert resumed[policy].hits == reference[policy].hits

    def test_wrong_sweep_is_rejected(self, tmp_path):
        job = self._job()
        run_sweep(job, checkpoint_dir=tmp_path)
        other = SweepJob(trace=np.arange(100), name="chaos", policies=("lru",), capacities=(8, 16))
        with pytest.raises(CheckpointError, match="different run"):
            run_sweep(other, checkpoint_dir=tmp_path, resume=True)
