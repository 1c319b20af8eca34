"""Cross-validation of the single-pass LRU capacity sweep.

The acceptance bar of the sweep engine: the whole LRU capacity grid derived
from one stack-distance histogram must be *bit-identical* to replaying the
trace through a fresh :class:`~repro.cache.lru.LRUCache` at every capacity —
on random traces and on the paper's periodic ``A σ(A)`` re-traversals.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import naive_sweep_hits

from repro.core.hits import cache_hit_vector
from repro.core.permutation import Permutation
from repro.sim import lru_sweep_hits
from repro.trace.generators import zipfian_trace
from repro.trace.trace import PeriodicTrace


class TestAgainstReplay:
    def test_random_trace_bit_identical(self, rng):
        trace = rng.integers(0, 40, 1500)
        capacities = np.arange(1, 51)
        assert np.array_equal(lru_sweep_hits(trace, capacities), naive_sweep_hits(trace, capacities, policy="lru"))

    def test_zipf_trace_bit_identical(self):
        trace = zipfian_trace(4000, 128, exponent=0.9, rng=3).accesses
        capacities = np.array([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
        assert np.array_equal(lru_sweep_hits(trace, capacities), naive_sweep_hits(trace, capacities, policy="lru"))

    @pytest.mark.parametrize("m", [4, 6, 9])
    def test_periodic_retraversals_bit_identical(self, m, rng):
        for sigma in (
            Permutation.identity(m),
            Permutation.reverse(m),
            Permutation([int(x) for x in rng.permutation(m)]),
        ):
            trace = PeriodicTrace(sigma).to_trace().accesses
            capacities = np.arange(1, m + 1)
            sweep = lru_sweep_hits(trace, capacities)
            assert np.array_equal(sweep, naive_sweep_hits(trace, capacities, policy="lru"))

    def test_periodic_matches_closed_form_hit_vector(self):
        """On ``A σ(A)`` the swept grid reproduces the paper's closed-form hits."""
        sigma = Permutation([2, 0, 3, 1, 4])
        trace = PeriodicTrace(sigma).to_trace().accesses
        sweep = lru_sweep_hits(trace, np.arange(1, sigma.size + 1))
        assert np.array_equal(sweep, cache_hit_vector(sigma))


class TestGridSemantics:
    def test_single_pass_consistent_with_subset(self):
        trace = zipfian_trace(2000, 64, exponent=1.0, rng=1).accesses
        full = lru_sweep_hits(trace, np.arange(1, 65))
        subset = lru_sweep_hits(trace, np.array([3, 17, 42]))
        assert np.array_equal(subset, full[[2, 16, 41]])

    def test_hits_monotone_in_capacity(self):
        """Stack inclusion: a larger LRU cache never hits less."""
        trace = zipfian_trace(3000, 100, exponent=0.7, rng=5).accesses
        hits = lru_sweep_hits(trace, np.arange(1, 101))
        assert np.all(np.diff(hits) >= 0)

    def test_capacity_at_footprint_leaves_only_cold_misses(self):
        trace = zipfian_trace(3000, 100, exponent=0.7, rng=5).accesses
        distinct = np.unique(trace).size
        hits = lru_sweep_hits(trace, np.array([distinct]))
        assert hits[0] == trace.size - distinct

    def test_rejects_bad_capacities(self):
        trace = np.array([0, 1, 2])
        with pytest.raises(ValueError):
            lru_sweep_hits(trace, np.array([0]))
        with pytest.raises(ValueError):
            lru_sweep_hits(trace, np.array([], dtype=np.int64))
        with pytest.raises(TypeError):
            lru_sweep_hits(trace, np.array([1.5]))
