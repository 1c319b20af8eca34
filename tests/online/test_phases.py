"""Unit tests for the phase-change detector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import TenantPhaseDetector

from repro.cache.mrc import MissRatioCurve
from repro.online import OnlineJob, PhaseChangeDetector, WindowedShardsSketch, run_replay
from repro.online import replay as replay_module
from repro.resilience.faults import FaultInjected, install_faults
from repro.trace.drift import tenant_churn, working_set_migration


def flat_curve(level: float) -> np.ndarray:
    return np.array([[level, level, level]])


def observe(detector: PhaseChangeDetector, curve: np.ndarray):
    """Feed one tenant's curve and return that tenant's ``(distance, changed)``."""
    observation = detector.observe(curve, [0])
    return float(observation.distance[0]), bool(observation.changed[0])


class TestDetectorMechanics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PhaseChangeDetector(1, threshold=0.0)
        with pytest.raises(ValueError):
            PhaseChangeDetector(1, threshold=0.1, hysteresis=0)

    def test_first_observation_anchors_reference(self):
        detector = PhaseChangeDetector(1, threshold=0.1)
        distance, changed = observe(detector, flat_curve(0.5))
        assert not changed and distance == 0.0
        assert detector.state_dict()[0]["reference"] is not None

    def test_hysteresis_requires_consecutive_excursions(self):
        detector = PhaseChangeDetector(1, threshold=0.1, hysteresis=3)
        observe(detector, flat_curve(0.2))
        assert not observe(detector, flat_curve(0.8))[1]
        assert not observe(detector, flat_curve(0.8))[1]
        assert observe(detector, flat_curve(0.8))[1]
        assert detector.changes.tolist() == [1]

    def test_excursion_streak_resets_on_return(self):
        detector = PhaseChangeDetector(1, threshold=0.1, hysteresis=2)
        observe(detector, flat_curve(0.2))
        assert not observe(detector, flat_curve(0.8))[1]  # armed
        assert not observe(detector, flat_curve(0.2))[1]  # back on reference
        assert not observe(detector, flat_curve(0.8))[1]  # armed again, not flagged
        assert detector.changes.tolist() == [0]

    def test_reanchors_after_change(self):
        detector = PhaseChangeDetector(1, threshold=0.1, hysteresis=1)
        observe(detector, flat_curve(0.2))
        assert observe(detector, flat_curve(0.8))[1]
        assert not observe(detector, flat_curve(0.8))[1]
        assert observe(detector, flat_curve(0.2))[1]
        assert detector.changes.tolist() == [2]

    def test_stationary_noise_below_threshold_never_flags(self):
        detector = PhaseChangeDetector(1, threshold=0.2, hysteresis=1)
        for level in (0.5, 0.52, 0.48, 0.51, 0.5):
            assert not observe(detector, flat_curve(level))[1]


class TestDetectorOnWindowedProfiles:
    @staticmethod
    def sketch_curves(width=None):
        """The windowed curves of a migrating trace, one per 500 references (at their natural length by default)."""
        phased = working_set_migration(3000, [(0, 100), (500, 400)], seed=3)
        sketch = WindowedShardsSketch(window=1500, rate=1.0)
        trace = phased.trace.accesses
        for start in range(0, trace.size, 500):
            sketch.update(trace[start : start + 500])
            yield sketch.curve(max_cache_size=width)

    def test_flags_working_set_migration_exactly_once(self):
        """A windowed profile stream over a migrating trace flags one change.

        The sketch curves grow with the window.  One tenant's detector of
        ``tests/oracles.py`` compares two curves over the longer one's sizes;
        the matrix detector holds one width (the replay's budget).
        """
        detector = TenantPhaseDetector(threshold=0.08, hysteresis=1)
        flags = [detector.observe(curve)[2] for curve in self.sketch_curves()]
        assert sum(flags) == 1
        # the flag lands after the boundary at position 3000 (epoch index 6+)
        assert flags.index(True) >= 6

    @pytest.mark.parametrize("hysteresis", [1, 3])
    def test_matrix_rows_follow_the_per_tenant_detector_at_one_width(self, hysteresis):
        detector = PhaseChangeDetector(1, threshold=0.08, hysteresis=hysteresis)
        oracle = TenantPhaseDetector(threshold=0.08, hysteresis=hysteresis)
        for curve in self.sketch_curves(width=500):
            observation = detector.observe(curve.ratios[np.newaxis], [0])
            want = oracle.observe(curve)
            assert (observation.distance[0], observation.exceeded[0], observation.changed[0]) == want


def _curve_rows(width: int):
    """Non-increasing miss-ratio rows; a few fixed levels make equal rows (distance 0) and exact ties likely."""
    level = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    return st.lists(level, min_size=width, max_size=width).map(lambda values: sorted(values, reverse=True))


@st.composite
def _epochs(draw):
    """Per epoch: the observed tenants (the others are idle or failed) and their rows."""
    tenants, width = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    epochs = []
    for _ in range(draw(st.integers(1, 10))):
        observed = sorted(draw(st.sets(st.integers(0, tenants - 1))))
        epochs.append((observed, [draw(_curve_rows(width)) for _ in observed]))
    return tenants, width, epochs


def _assert_same_state(detector: PhaseChangeDetector, oracles: list[TenantPhaseDetector]) -> None:
    for state, oracle in zip(detector.state_dict(), oracles, strict=True):
        assert (state["streak"], state["changes"]) == (oracle.streak, oracle.changes)
        if oracle.reference is None:
            assert state["reference"] is None
        else:
            assert state["reference"].tobytes() == oracle.reference.ratios.tobytes()


class TestMatrixDetectorDifferential:
    """Every row of the matrix detector against one per-tenant detector with ``compare_curves`` each."""

    @settings(max_examples=150)
    @given(case=_epochs(), hysteresis=st.sampled_from([1, 3]), threshold=st.sampled_from([0.05, 0.25]))
    def test_rows_equal_the_per_tenant_detectors(self, case, hysteresis, threshold):
        tenants, width, epochs = case
        detector = PhaseChangeDetector(tenants, threshold=threshold, hysteresis=hysteresis)
        oracles = [TenantPhaseDetector(threshold=threshold, hysteresis=hysteresis) for _ in range(tenants)]
        for observed, rows in epochs:
            observation = detector.observe(np.array(rows, dtype=np.float64).reshape(len(rows), width), observed)
            for i, (t, row) in enumerate(zip(observed, rows)):
                want = oracles[t].observe(MissRatioCurve(ratios=row, accesses=1))
                got = (float(observation.distance[i]), bool(observation.exceeded[i]), bool(observation.changed[i]))
                assert got == want
            _assert_same_state(detector, oracles)

    def test_state_round_trips(self):
        detector = PhaseChangeDetector(3, threshold=0.1, hysteresis=2)
        detector.observe(np.array([[0.5, 0.2], [0.9, 0.9]]), [0, 2])
        detector.observe(np.array([[0.9, 0.8]]), [0])
        restored = PhaseChangeDetector(3, threshold=0.1, hysteresis=2)
        restored.load_state_dict(detector.state_dict())
        rows = np.array([[0.9, 0.8], [0.1, 0.1], [0.9, 0.9]])
        want = detector.observe(rows, [0, 1, 2])
        got = restored.observe(rows, [0, 1, 2])
        assert [a.tolist() for a in vars(got).values()] == [a.tolist() for a in vars(want).values()]

    def test_rejects_curves_of_another_width(self):
        detector = PhaseChangeDetector(2, threshold=0.1)
        detector.observe(np.zeros((1, 3)), [1])
        with pytest.raises(ValueError, match="3"):
            detector.observe(np.zeros((1, 4)), [0])


class _CheckedDetector(PhaseChangeDetector):
    """The replay's detector, asserting every observation and state against per-tenant oracles."""

    def __init__(self, tenants, *, threshold, hysteresis):
        super().__init__(tenants, threshold=threshold, hysteresis=hysteresis)
        self.oracles = [TenantPhaseDetector(threshold=threshold, hysteresis=hysteresis) for _ in range(tenants)]
        self.observed = self.skipped = 0

    def observe(self, ratios, tenants):
        observation = super().observe(ratios, tenants)
        for i, t in enumerate(tenants):
            want = self.oracles[t].observe(MissRatioCurve(ratios=ratios[i].copy(), accesses=1))
            assert (observation.distance[i], observation.exceeded[i], observation.changed[i]) == want
        self.observed += len(tenants)
        self.skipped += len(self.oracles) - len(tenants)
        _assert_same_state(self, self.oracles)
        return observation


class _FailTenantAt:
    """A fault plan failing one tenant's profile extraction on the given (0-based) calls."""

    def __init__(self, tenant: int, calls: set[int]):
        self.tenant, self.calls, self.seen = tenant, calls, 0

    def fire(self, site, index, attempt=1):
        if site == "online.profile" and index == self.tenant:
            self.seen += 1
            if self.seen - 1 in self.calls:
                raise FaultInjected(f"injected fault: profile of tenant {index}")


class TestReplayDetectorDifferential:
    """The replay's detector rows equal per-tenant detectors, with an idle tenant and failed extractions."""

    @pytest.mark.parametrize("hysteresis", [1, 3])
    def test_tenant_churn_with_failed_profiles(self, monkeypatch, hysteresis):
        workload = tenant_churn(3000, seed=11)  # the visitor is idle in the first and last phase
        job = OnlineJob(budget=700, window=4000, epoch=1000, rate=0.5, hysteresis=hysteresis, threshold=0.02)
        detectors = []

        def checked(*args, **knobs):
            detectors.append(_CheckedDetector(*args, **knobs))
            return detectors[-1]

        monkeypatch.setattr(replay_module, "PhaseChangeDetector", checked)
        with install_faults(_FailTenantAt(0, {2, 3, 7})):
            result = run_replay(workload, job)
        (detector,) = detectors
        assert result.profile_failures == 3
        assert detector.observed > len(result.epochs) and detector.skipped > 3  # idle and failed tenants
        assert result.phase_changes > 0
