"""Tests for the multi-tenant workload composer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import Trace, TenantSpec, compose_tenants, zipfian_trace
from repro.trace.trace import PeriodicTrace


@pytest.fixture
def three_tenants():
    return [
        TenantSpec(zipfian_trace(2000, 256, exponent=0.9, rng=3), name="zipf"),
        TenantSpec(PeriodicTrace.sawtooth(100).to_trace(), name="saw"),
        TenantSpec(Trace(np.arange(50) % 10), name="mod"),
    ]


class TestComposeTenants:
    def test_length_is_sum_of_tenant_lengths(self, three_tenants):
        composed = compose_tenants(three_tenants, seed=0)
        assert len(composed.trace) == sum(spec.accesses.size for spec in three_tenants)

    def test_tenant_order_is_preserved(self, three_tenants):
        composed = compose_tenants(three_tenants, seed=1)
        for t, spec in enumerate(three_tenants):
            extracted = composed.tenant_trace(t) - composed.offsets[t]
            np.testing.assert_array_equal(extracted, spec.accesses.astype(np.int64))

    def test_namespaces_are_disjoint(self, three_tenants):
        composed = compose_tenants(three_tenants, seed=2)
        item_sets = [set(composed.tenant_trace(t).tolist()) for t in range(composed.num_tenants)]
        for i in range(len(item_sets)):
            for j in range(i + 1, len(item_sets)):
                assert not item_sets[i] & item_sets[j]

    def test_deterministic_in_seed(self, three_tenants):
        a = compose_tenants(three_tenants, seed=5)
        b = compose_tenants(three_tenants, seed=5)
        c = compose_tenants(three_tenants, seed=6)
        np.testing.assert_array_equal(a.trace.accesses, b.trace.accesses)
        np.testing.assert_array_equal(a.tenant_ids, b.tenant_ids)
        assert not np.array_equal(a.trace.accesses, c.trace.accesses)

    def test_rates_skew_the_interleaving(self):
        """A tenant with 10x the rate lands its accesses much earlier on average."""
        fast = TenantSpec(Trace(np.zeros(500, dtype=np.int64)), name="fast", rate=10.0)
        slow = TenantSpec(Trace(np.zeros(500, dtype=np.int64)), name="slow", rate=1.0)
        composed = compose_tenants([fast, slow], seed=0)
        positions_fast = np.nonzero(composed.tenant_ids == 0)[0]
        positions_slow = np.nonzero(composed.tenant_ids == 1)[0]
        assert positions_fast.mean() < positions_slow.mean() / 2

    def test_streams_are_the_masked_subsequences_split_once(self, three_tenants):
        composed = compose_tenants(three_tenants, seed=3)
        assert composed.streams is composed.streams
        for t in range(composed.num_tenants):
            mask = composed.tenant_ids == t
            np.testing.assert_array_equal(composed.tenant_trace(t), composed.trace.accesses[mask])
            assert composed.tenant_trace(t) is composed.streams[t]
            assert not composed.tenant_trace(t).flags.writeable
            assert composed.tenant_share(t) == float(np.count_nonzero(mask)) / len(composed.trace)

    def test_tenant_share_sums_to_one(self, three_tenants):
        composed = compose_tenants(three_tenants, seed=0)
        total = sum(composed.tenant_share(t) for t in range(composed.num_tenants))
        assert total == pytest.approx(1.0)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            compose_tenants([])
        with pytest.raises(ValueError):
            compose_tenants([TenantSpec(Trace([]), name="empty")])

    def test_duplicate_names_are_disambiguated(self):
        """Name-keyed downstream reports (e.g. PartitionResult.allocation)
        must never collapse two tenants into one entry."""
        specs = [TenantSpec(Trace([0, 1])), TenantSpec(Trace([0, 1])), TenantSpec(Trace([0]), name="b")]
        composed = compose_tenants(specs, seed=0)
        assert composed.names == ("tenant", "tenant-1", "b")

    def test_rejects_negative_labels(self):
        """Raw-array tenants bypass Trace validation; negative labels would
        silently alias namespaces across tenants."""
        with pytest.raises(ValueError):
            compose_tenants([TenantSpec(np.array([0, 1, 2])), TenantSpec(np.array([-5, 0, -5]))])

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TenantSpec(Trace([1, 2]), rate=0.0)
        with pytest.raises(ValueError):
            TenantSpec(Trace([1, 2]), rate=-1.0)
