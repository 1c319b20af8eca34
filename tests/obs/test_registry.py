"""MetricsRegistry: metric semantics, the recording context, merge laws."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, get_registry, recording, span
from repro.obs.registry import Histogram


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events", source="a")
        counter.inc()
        counter.add(4)
        assert registry.counter("events", source="a").value == 5

    def test_labels_address_distinct_counters(self):
        registry = MetricsRegistry()
        registry.counter("events", source="a").inc()
        registry.counter("events", source="b").add(2)
        assert registry.counter("events", source="a").value == 1
        assert registry.counter("events", source="b").value == 2

    def test_label_keyword_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("events", a=1, b=2).inc()
        assert registry.counter("events", b=2, a=1).value == 1

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            MetricsRegistry().counter("events").add(-1)


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("workers")
        assert gauge.value is None and not gauge.updated
        gauge.set(4)
        gauge.set(8)
        assert gauge.value == 8 and gauge.updated


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", edges=(1, 2, 4), labels={})
        for value, expected in [(0.5, 0), (1, 0), (1.5, 1), (2, 1), (3, 2), (4, 2), (5, 3)]:
            assert h.bucket_index(value) == expected, value

    def test_observe_fills_buckets_and_totals(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", edges=(1, 4, 16))
        h.observe_many([0, 2, 3, 20])
        assert h.counts == [1, 2, 0, 1]
        assert h.count == 4
        assert h.total == 25.0

    def test_rejects_bad_edges(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("a", edges=())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("b", edges=(1, 1, 2))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("c", edges=(1, float("inf")))

    def test_rejects_conflicting_edges_for_same_name(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1, 2))
        with pytest.raises(ValueError, match="already exists"):
            registry.histogram("h", edges=(1, 2, 4))

    @given(
        edges=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=8, unique=True).map(
            lambda xs: tuple(sorted(xs))
        ),
        values=st.lists(st.floats(min_value=-10, max_value=2000, allow_nan=False), max_size=50),
    )
    def test_every_value_lands_in_exactly_one_bucket(self, edges, values):
        h = Histogram("h", edges=edges, labels={})
        h.observe_many(values)
        assert sum(h.counts) == len(values) == h.count
        for value in values:
            index = h.bucket_index(value)
            # the chosen bucket's upper edge is the first edge >= value
            if index < len(edges):
                assert value <= edges[index]
            if index > 0:
                assert value > edges[index - 1]


class TestSpanAndSeries:
    def test_span_records_into_active_registry(self):
        registry = MetricsRegistry()
        with recording(registry):
            with span("work", stage="x") as timer:
                pass
        assert timer.seconds >= 0.0
        stats = registry.snapshot()[("span", "work", (("stage", "x"),))]
        assert stats[0] == 1  # count

    def test_span_measures_even_when_disabled(self):
        with span("work") as timer:
            total = sum(range(1000))
        assert total == 499500
        assert timer.seconds > 0.0

    def test_disabled_registry_hands_out_null_singletons(self):
        registry = get_registry()
        assert not registry.enabled
        registry.counter("x").add(5)
        registry.gauge("x").set(1)
        registry.histogram("x", edges=(1,)).observe(0)
        registry.series("x").record(epoch=0)
        assert registry.counter("x").value == 0
        assert registry.records() == []

    def test_recording_nests_and_restores(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with recording(outer):
            get_registry().counter("c").inc()
            with recording(inner):
                get_registry().counter("c").inc()
            get_registry().counter("c").inc()
        assert not get_registry().enabled
        assert outer.counter("c").value == 2
        assert inner.counter("c").value == 1

    def test_series_preserves_row_order(self):
        registry = MetricsRegistry()
        series = registry.series("epochs")
        series.record(epoch=0, hits=1)
        series.record(epoch=1, hits=2)
        assert len(series) == 2
        assert [row["epoch"] for row in series.rows] == [0, 1]

    def test_record_span_aggregates_deterministically(self):
        registry = MetricsRegistry()
        for seconds in (0.25, 0.5, 0.125):
            registry.record_span("chunk", seconds, worker="pool")
        count, total, mn, mx = registry.snapshot()[("span", "chunk", (("worker", "pool"),))]
        assert (count, total, mn, mx) == (3, 0.875, 0.125, 0.5)


# -- merge ------------------------------------------------------------------- #
_names = st.sampled_from(["a", "b", "c"])
_labels = st.dictionaries(st.sampled_from(["k", "m"]), st.sampled_from(["1", "2"]), max_size=1)


@st.composite
def registries(draw):
    """A small random registry exercising every metric kind."""
    registry = MetricsRegistry()
    for _ in range(draw(st.integers(0, 4))):
        registry.counter(draw(_names), **draw(_labels)).add(draw(st.integers(0, 100)))
    for _ in range(draw(st.integers(0, 3))):
        registry.gauge(draw(_names), **draw(_labels)).set(draw(st.integers(-5, 5)))
    for _ in range(draw(st.integers(0, 3))):
        registry.histogram("hist", edges=(1, 4, 16)).observe(draw(st.integers(0, 32)))
    for _ in range(draw(st.integers(0, 3))):
        registry.record_span(draw(_names), draw(st.floats(0, 1, allow_nan=False)), **draw(_labels))
    for _ in range(draw(st.integers(0, 2))):
        registry.series("s").record(v=draw(st.integers(0, 9)))
    return registry


@st.composite
def registry_triples(draw):
    return draw(registries()), draw(registries()), draw(registries())


class TestMerge:
    def test_counters_add_and_gauges_right_win(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").add(3)
        right.counter("c").add(4)
        left.gauge("g").set(1)
        right.gauge("g").set(2)
        left.gauge("only_left").set(9)
        left.merge(right)
        assert left.counter("c").value == 7
        assert left.gauge("g").value == 2
        assert left.gauge("only_left").value == 9  # right never wrote it

    def test_histograms_require_identical_edges(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", edges=(1, 2)).observe(1)
        right.histogram("h", edges=(1, 2, 4)).observe(1)
        with pytest.raises(ValueError, match="cannot merge"):
            left.merge(right)

    def test_series_concatenate_in_order(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.series("s").record(v=1)
        right.series("s").record(v=2)
        left.merge(right)
        assert [row["v"] for row in left.series("s").rows] == [1, 2]

    @given(registry_triples())
    def test_merge_is_associative(self, triple):
        a1, b1, c1 = triple
        # merge mutates the left operand, so build each grouping from
        # independent snapshots of the same measurements via fresh merges
        # into empty registries.
        def clone(r):
            return MetricsRegistry().merge(r)

        left_first = clone(a1).merge(b1).merge(c1).snapshot()
        right_first = clone(a1).merge(clone(b1).merge(c1)).snapshot()
        assert left_first.keys() == right_first.keys()
        for key, left in left_first.items():
            right = right_first[key]
            if key[0] == "span":
                # float sums of span seconds may differ by one rounding step
                # between groupings; count, min and max are exact
                (left_count, left_total, *left_extremes), (right_count, right_total, *right_extremes) = left, right
                assert (left_count, left_extremes) == (right_count, right_extremes)
                assert math.isclose(left_total, right_total, rel_tol=1e-12, abs_tol=1e-12)
            else:
                assert left == right, key

    @given(registries())
    def test_merge_into_empty_is_identity(self, registry):
        assert MetricsRegistry().merge(registry).snapshot() == registry.snapshot()
