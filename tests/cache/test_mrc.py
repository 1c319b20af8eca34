"""Unit tests for miss-ratio-curve construction."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from oracles import mrc_by_simulation

from repro.cache import MissRatioCurve, average_curves, mrc_from_trace
from repro.core import Permutation, miss_ratio_curve
from repro.trace import PeriodicTrace, zipfian_trace


class TestMissRatioCurve:
    def test_from_periodic_trace_matches_closed_form(self):
        sigma = Permutation([3, 1, 0, 2, 4])
        curve = mrc_from_trace(PeriodicTrace(sigma).to_trace().accesses)
        closed = miss_ratio_curve(sigma, convention="full")
        assert np.allclose(curve.as_array(), closed)

    def test_matches_per_size_simulation(self, rng):
        trace = zipfian_trace(300, 40, rng=rng).accesses
        curve = mrc_from_trace(trace)
        sim = mrc_by_simulation(trace, [1, 2, 5, 20, 40])
        for c, ratio in sim.items():
            assert curve[c] == pytest.approx(ratio)

    def test_monotone_nonincreasing(self, rng):
        trace = zipfian_trace(500, 60, rng=rng).accesses
        curve_array = mrc_from_trace(trace).as_array()
        assert np.all(np.diff(curve_array) <= 1e-12)

    def test_indexing_and_clamping(self):
        curve = MissRatioCurve(ratios=(1.0, 0.5, 0.25), accesses=8)
        assert curve[1] == 1.0
        assert curve[3] == 0.25
        assert curve[100] == 0.25
        with pytest.raises(ValueError):
            curve[0]

    def test_footprint_target(self):
        curve = MissRatioCurve(ratios=(0.9, 0.6, 0.2), accesses=10)
        assert curve.footprint(0.5) == 3
        assert curve.footprint(0.95) == 1
        assert curve.footprint(0.1) is None

    def test_boundary_capacity_zero_and_beyond_max_footprint(self):
        """Explicit boundary behaviour: size 0 is rejected, sizes past the
        curve clamp to the final (fully-fitting) value everywhere."""
        curve = MissRatioCurve(ratios=(1.0, 0.5, 0.25), accesses=8)
        with pytest.raises(ValueError):
            curve[0]
        with pytest.raises(ValueError):
            curve[-3]
        assert curve[curve.max_cache_size] == curve[curve.max_cache_size + 1] == curve[10**9] == 0.25

    def test_footprint_boundary_targets(self):
        curve = MissRatioCurve(ratios=(0.9, 0.6, 0.6, 0.2), accesses=10)
        # target exactly on a plateau: the *smallest* size on it wins
        assert curve.footprint(0.6) == 2
        # every curve satisfies a target of 1.0 at the smallest size
        assert curve.footprint(1.0) == 1
        # targets below the curve's floor (beyond max footprint) are unreachable
        assert curve.footprint(0.2) == 4
        assert curve.footprint(0.19) is None
        assert curve.footprint(-0.5) is None

    def test_single_point_and_empty_curves(self):
        single = MissRatioCurve(ratios=(0.75,), accesses=4)
        assert single[1] == single[100] == 0.75
        assert single.footprint(0.75) == 1
        assert single.footprint(0.5) is None
        with pytest.raises(ValueError):
            MissRatioCurve(ratios=(), accesses=4)

    def test_max_cache_size_argument(self, rng):
        trace = zipfian_trace(100, 30, rng=rng).accesses
        curve = mrc_from_trace(trace, max_cache_size=7)
        assert curve.max_cache_size == 7

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            mrc_from_trace([])


class TestCurveContract:
    """``ratios`` is a read-only ``float64`` array; equality is bit for bit."""

    def test_ratios_are_a_read_only_float64_array(self):
        curve = mrc_from_trace([0, 1, 0, 2, 1, 0])
        assert isinstance(curve.ratios, np.ndarray) and curve.ratios.dtype == np.float64
        assert curve.as_array() is curve.ratios
        with pytest.raises(ValueError, match="read-only"):
            curve.ratios[0] = 0.0

    @pytest.mark.parametrize("ratios", [(0.5, 0.25), [0.5, 0.25], np.array([0.5, 0.25], dtype=np.float32)])
    def test_tuple_list_and_other_dtypes_are_copied(self, ratios):
        curve = MissRatioCurve(ratios=ratios, accesses=4)
        assert curve.ratios.tolist() == [0.5, 0.25]
        assert curve.ratios.dtype == np.float64 and not curve.ratios.flags.writeable

    def test_an_owned_float64_array_is_taken_over(self):
        fresh = np.array([0.75, 0.5])
        curve = MissRatioCurve(ratios=fresh, accesses=4)
        assert curve.ratios is fresh and not fresh.flags.writeable

    def test_a_view_is_copied_so_its_base_stays_writeable(self):
        base = np.array([0.75, 0.5, 0.25])
        curve = MissRatioCurve(ratios=base[:2], accesses=4)
        base[0] = 0.0
        assert curve.ratios.tolist() == [0.75, 0.5]

    def test_ratios_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            MissRatioCurve(ratios=np.zeros((2, 2)), accesses=4)
        with pytest.raises(ValueError, match="one-dimensional"):
            MissRatioCurve(ratios=0.5, accesses=4)

    def test_equality_is_bit_equality(self):
        curve = MissRatioCurve(ratios=(0.5, 0.25), accesses=4)
        assert curve == MissRatioCurve(ratios=[0.5, 0.25], accesses=4)
        assert curve != MissRatioCurve(ratios=(0.5, 0.25, 0.25), accesses=4)  # length
        assert curve != MissRatioCurve(ratios=(0.5,), accesses=4)
        assert curve != MissRatioCurve(ratios=(0.5, 0.25), accesses=5)  # accesses
        assert curve != MissRatioCurve(ratios=(0.5, np.nextafter(0.25, 1.0)), accesses=4)  # one ulp
        assert MissRatioCurve(ratios=(0.0,), accesses=1) != MissRatioCurve(ratios=(-0.0,), accesses=1)
        assert curve != (0.5, 0.25)

    def test_curves_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(MissRatioCurve(ratios=(0.5,), accesses=1))

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_stays_read_only(self, protocol):
        curve = mrc_from_trace([0, 1, 2, 0, 1, 2, 3])
        back = pickle.loads(pickle.dumps(curve, protocol=protocol))
        assert back == curve
        assert not back.ratios.flags.writeable

    def test_a_pickle_of_a_tuple_curve_loads_as_an_array_curve(self):
        # The state a pickle holds when ratios were a tuple of floats.
        curve = MissRatioCurve.__new__(MissRatioCurve)
        curve.__setstate__({"ratios": (0.5, 0.25), "accesses": 4})
        assert curve == MissRatioCurve(ratios=(0.5, 0.25), accesses=4)
        assert not curve.ratios.flags.writeable

    def test_pool_round_trip_stays_read_only(self):
        from repro.profiling.engine import ProfileJob, run_jobs

        trace = zipfian_trace(2_000, 128, rng=1).accesses
        jobs = [ProfileJob(trace=trace, name=str(i), mode=mode) for i, mode in enumerate(("exact", "shards", "reuse"))]
        inline = run_jobs(jobs, workers=1)
        pooled = run_jobs(jobs, workers=2)
        for a, b in zip(inline, pooled):
            assert a.curve == b.curve
            assert not b.curve.ratios.flags.writeable


class TestAverageCurves:
    def test_average_of_identical_curves(self):
        curve = [1.0, 0.5, 0.0]
        assert np.allclose(average_curves([curve, curve]), curve)

    def test_elementwise_mean(self):
        result = average_curves([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(result, [0.5, 0.5])

    def test_accepts_missratiocurve_objects(self):
        a = MissRatioCurve(ratios=(1.0, 0.0), accesses=2)
        b = MissRatioCurve(ratios=(0.0, 1.0), accesses=2)
        assert np.allclose(average_curves([a, b]), [0.5, 0.5])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            average_curves([[1.0, 0.5], [1.0]])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            average_curves([])
