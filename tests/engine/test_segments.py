"""Unit tests for the engine's segment/boundary arithmetic."""

from __future__ import annotations

import pytest

from repro.engine.segments import phase_of_event, phase_of_last_event, replay_stops


class TestReplayStops:
    def test_matches_legacy_inline_schedule(self):
        # The exact expression run_replay used before the engine existed.
        n, epoch, boundaries = 10_500, 500, (0, 3000, 6000)
        epoch_ends = set(range(epoch, n, epoch)) | {n}
        legacy = sorted(epoch_ends | {b for b in boundaries if b > 0})
        stops, ends = replay_stops(n, epoch, boundaries)
        assert stops == legacy
        assert ends == frozenset(epoch_ends)

    def test_partial_final_epoch(self):
        stops, ends = replay_stops(7, 3)
        assert stops == [3, 6, 7]
        assert ends == frozenset({3, 6, 7})

    def test_interior_boundaries_merge_without_becoming_epochs(self):
        stops, ends = replay_stops(10, 5, (0, 7))
        assert stops == [5, 7, 10]
        assert 7 not in ends

    def test_boundary_past_the_trace_is_ignored(self):
        stops, _ = replay_stops(10, 5, (0, 10, 15))
        assert stops == [5, 10]

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            replay_stops(0, 5)


class TestPhaseLabels:
    BOUNDARIES = (0, 3000, 6000)

    def test_phase_of_event(self):
        assert phase_of_event(self.BOUNDARIES, 0) == 0
        assert phase_of_event(self.BOUNDARIES, 2999) == 0
        assert phase_of_event(self.BOUNDARIES, 3000) == 1
        assert phase_of_event(self.BOUNDARIES, 6001) == 2

    def test_boundary_epoch_labeled_by_its_last_event(self):
        # Regression for the boundary-epoch pitfall: an epoch ending exactly
        # on a phase boundary contains only old-phase events, even though the
        # replay's phase cursor has already advanced past the boundary.
        assert phase_of_last_event(self.BOUNDARIES, 3000) == 0
        assert phase_of_last_event(self.BOUNDARIES, 3001) == 1
        assert phase_of_last_event(self.BOUNDARIES, 6000) == 1

    def test_replay_attributes_boundary_epochs_to_the_old_phase(self):
        # End-to-end: with epoch dividing the phase length, every phase's
        # last epoch ends exactly on a boundary and must carry that phase's
        # label (this is pinned bit-exactly by the golden online fixture too).
        from repro.online.replay import OnlineJob, run_replay
        from repro.trace.drift import three_phase_pair

        workload = three_phase_pair(1500, seed=7)
        phase_length = workload.boundaries[1]
        assert phase_length % 500 == 0
        job = OnlineJob(budget=320, window=1500, epoch=500, rate=0.5, name="boundary")
        result = run_replay(workload, job)
        for epoch in result.epochs:
            assert epoch.phase == phase_of_last_event(workload.boundaries, epoch.end)
        boundary_epochs = [e for e in result.epochs if e.end in workload.boundaries]
        assert boundary_epochs, "expected epochs ending exactly on phase boundaries"
        for epoch in boundary_epochs:
            assert epoch.phase == phase_of_event(workload.boundaries, epoch.end) - 1
