"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import MetricsRegistry


class TestCounter:
    def test_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2, venue="vm")
        counter.inc(3, venue="vm")
        assert counter.value() == 1
        assert counter.value(venue="vm") == 5
        assert counter.value(venue="cf") == 0

    def test_cannot_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_total_overwrites(self):
        counter = MetricsRegistry().counter("c")
        counter.set_total(41, kind="get")
        counter.set_total(42, kind="get")
        assert counter.value(kind="get") == 42

    def test_label_order_is_irrelevant(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1, a="x", b="y")
        assert gauge.value(b="y", a="x") == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4


class TestHistogram:
    def test_observe_counts_and_sums(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.count() == 3
        assert hist.sum() == 105.5

    def test_render_has_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "latency", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render()
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="10"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.5" in text
        assert "lat_seconds_count 2" in text

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestHistogramQuantile:
    def make(self, values, buckets=(1.0, 5.0, 10.0)):
        hist = MetricsRegistry().histogram("lat", buckets=buckets)
        for value in values:
            hist.observe(value)
        return hist

    def test_empty_histogram_returns_none(self):
        assert self.make([]).quantile(0.5) is None

    def test_interpolates_within_bucket(self):
        # 4 observations in (1, 5]: rank 2 of 4 -> midpoint of the bucket.
        hist = self.make([2.0, 3.0, 4.0, 4.5])
        assert hist.quantile(0.5) == pytest.approx(3.0)

    def test_first_bucket_lower_bound_is_zero(self):
        # All mass in the first bucket: interpolation starts at 0, the
        # Prometheus histogram_quantile convention.
        hist = self.make([0.5, 0.5])
        assert 0.0 <= hist.quantile(0.5) <= 1.0

    def test_beyond_last_finite_bucket_clamps(self):
        hist = self.make([100.0, 200.0])
        assert hist.quantile(0.99) == 10.0

    def test_p50_p95_p99_ordering(self):
        hist = self.make([0.5] * 90 + [7.0] * 9 + [100.0])
        p50 = hist.quantile(0.50)
        p95 = hist.quantile(0.95)
        p99 = hist.quantile(0.99)
        assert p50 <= p95 <= p99
        assert p50 <= 1.0
        assert 5.0 <= p95 <= 10.0

    def test_labels_are_independent(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        hist.observe(0.5, level="immediate")
        hist.observe(9.0, level="relaxed")
        assert hist.quantile(0.5, level="immediate") <= 1.0
        assert hist.quantile(0.5, level="relaxed") > 1.0
        assert hist.quantile(0.5, level="best_effort") is None

    def test_rejects_out_of_range_q(self):
        hist = self.make([1.0])
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_render_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "bees").inc(2, hive="a")
        registry.gauge("a_depth").set(3)
        text = registry.render()
        lines = text.splitlines()
        # Sorted by metric name, HELP/TYPE precede samples.
        assert lines[0] == "# TYPE a_depth gauge"
        assert lines[1] == "a_depth 3"
        assert lines[2] == "# HELP b_total bees"
        assert lines[3] == "# TYPE b_total counter"
        assert lines[4] == 'b_total{hive="a"} 2'
        assert text.endswith("\n")

    def test_collectors_run_at_render(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        queue = [1, 2, 3]
        registry.add_collector(lambda: depth.set(len(queue)))
        assert "queue_depth 3" in registry.render()
        queue.append(4)
        assert "queue_depth 4" in registry.render()


class TestExpositionEscaping:
    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("q_total")
        counter.inc(1, sql='SELECT "x"\nFROM t\\u')
        text = registry.render()
        assert 'q_total{sql="SELECT \\"x\\"\\nFROM t\\\\u"} 1' in text
        # The exposition stays line-oriented: no raw newline leaked.
        assert all(
            line.startswith(("#", "q_total")) for line in text.splitlines()
        )

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "first\nsecond \\ third").inc()
        text = registry.render()
        assert "# HELP c_total first\\nsecond \\\\ third" in text

    def test_samples_are_deterministically_ordered(self):
        def build() -> str:
            registry = MetricsRegistry()
            counter = registry.counter("z_total")
            # Insert label sets in shuffled order.
            counter.inc(1, venue="vm", level="relaxed")
            counter.inc(1, level="immediate", venue="cf")
            registry.gauge("a_depth").set(2, level="b")
            registry.gauge("a_depth").set(1, level="a")
            return registry.render()

        text = build()
        assert text == build()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines == sorted(lines)

    def test_instruments_listing_is_sorted_and_public(self):
        registry = MetricsRegistry()
        registry.gauge("b")
        registry.counter("a_total")
        registry.histogram("c_seconds", buckets=(1.0,))
        assert [i.name for i in registry.instruments()] == [
            "a_total", "b", "c_seconds",
        ]


class TestHistogramQuantileEdgeCases:
    """Regression pins for the five documented edge semantics."""

    def make(self, values, buckets=(1.0, 5.0, 10.0)):
        hist = MetricsRegistry().histogram("lat", buckets=buckets)
        for value in values:
            hist.observe(value)
        return hist

    def test_never_observed_label_set_returns_none(self):
        hist = self.make([1.0])
        assert hist.quantile(0.5, level="ghost") is None

    def test_q_zero_lands_in_first_occupied_bucket(self):
        # First occupied bucket is (1, 5]: q=0 returns its lower edge,
        # never 0 (the first bucket is empty).
        hist = self.make([2.0, 3.0, 9.0])
        assert hist.quantile(0.0) == pytest.approx(1.0)

    def test_q_zero_all_mass_in_first_bucket(self):
        hist = self.make([0.5, 0.7])
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_q_one_returns_last_occupied_finite_bucket_bound(self):
        hist = self.make([0.5, 2.0])
        assert hist.quantile(1.0) == pytest.approx(5.0)

    def test_q_one_with_overflow_clamps_to_largest_finite_bound(self):
        hist = self.make([0.5, 100.0])
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_single_bucket_all_overflow(self):
        # Every observation beyond the only finite bucket: any q clamps
        # to that bound instead of interpolating past it.
        hist = self.make([7.0, 8.0], buckets=(1.0,))
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(1.0)

    def test_single_bucket_all_inside(self):
        hist = self.make([0.2, 0.4], buckets=(1.0,))
        assert hist.quantile(1.0) == pytest.approx(1.0)
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_empty_middle_bucket_skipped(self):
        # Mass in (0,1] and (5,10] only; ranks falling past the empty
        # (1,5] bucket interpolate inside (5,10], never divide by zero.
        hist = self.make([0.5, 0.6, 7.0, 8.0])
        assert 5.0 <= hist.quantile(0.9) <= 10.0

    def test_negative_observations_use_bucket_lower_edge(self):
        # A histogram whose first bucket bound is negative must not
        # interpolate from 0 (which would lie above the bound).
        hist = self.make([-3.0, -2.0], buckets=(-1.0, 1.0))
        q = hist.quantile(0.5)
        assert q <= -1.0


class TestCardinalityGuard:
    def test_new_series_beyond_cap_dropped(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("pixels_requests_total")
        counter.inc(level="a")
        counter.inc(level="b")
        counter.inc(level="c")  # over the cap: dropped
        assert counter.value(level="a") == 1
        assert counter.value(level="c") == 0
        dropped = registry.get("pixels_metrics_dropped_series_total")
        assert dropped is not None
        assert dropped.value(metric="pixels_requests_total") == 1

    def test_existing_series_always_updatable(self):
        registry = MetricsRegistry(max_label_sets=1)
        gauge = registry.gauge("pixels_depth")
        gauge.set(1, level="a")
        gauge.set(5, level="a")  # update, not a new series
        gauge.inc(level="a")
        assert gauge.value(level="a") == 6
        gauge.set(9, level="b")  # new series over the cap
        assert gauge.value(level="b") == 0

    def test_histogram_guarded(self):
        registry = MetricsRegistry(max_label_sets=1)
        hist = registry.histogram("pixels_lat", buckets=(1.0,))
        hist.observe(0.5, level="a")
        hist.observe(0.5, level="b")
        assert hist.count(level="a") == 1
        assert hist.count(level="b") == 0
        dropped = registry.get("pixels_metrics_dropped_series_total")
        assert dropped.value(metric="pixels_lat") == 1

    def test_drop_counter_absent_until_first_drop(self):
        registry = MetricsRegistry(max_label_sets=4)
        registry.counter("ok_total").inc(level="a")
        assert registry.get("pixels_metrics_dropped_series_total") is None
        assert "dropped_series" not in registry.render()

    def test_drop_counter_itself_uncapped(self):
        registry = MetricsRegistry(max_label_sets=1)
        for index in range(3):
            instrument = registry.counter(f"m{index}_total")
            instrument.inc(level="a")
            instrument.inc(level="b")  # each drops once
        dropped = registry.get("pixels_metrics_dropped_series_total")
        assert sum(v for _, _, v in dropped.samples()) == 3

    def test_unlimited_when_cap_disabled(self):
        registry = MetricsRegistry(max_label_sets=None)
        counter = registry.counter("wide_total")
        for index in range(600):
            counter.inc(fingerprint=f"fp{index}")
        assert len(counter.samples()) == 600

    def test_default_cap_applied_by_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("default_total")
        from repro.obs.metrics import DEFAULT_MAX_LABEL_SETS

        assert counter.max_series == DEFAULT_MAX_LABEL_SETS

    def test_standalone_instruments_stay_uncapped(self):
        from repro.obs.metrics import Histogram

        hist = Histogram("loose", buckets=(1.0,))
        for index in range(300):
            hist.observe(0.5, series=str(index))
        assert hist.count(series="299") == 1
