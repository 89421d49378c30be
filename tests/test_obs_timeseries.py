"""Unit tests for the time-series store and scrape loop."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import ScrapeLoop, TimeSeriesStore
from repro.sim import Simulator


def _point(store: TimeSeriesStore, time: float, name: str, value: float,
           **labels: object) -> None:
    key = tuple(sorted((k, str(v)) for k, v in labels.items()))
    store.append(time, name, key, value)


class TestStore:
    def test_series_filters_by_exact_labels(self):
        store = TimeSeriesStore()
        _point(store, 1.0, "depth", 3.0, level="relaxed")
        _point(store, 2.0, "depth", 5.0, level="relaxed")
        _point(store, 2.0, "depth", 9.0, level="immediate")
        assert store.series("depth", level="relaxed") == [(1.0, 3.0), (2.0, 5.0)]
        assert store.series("depth") == [(1.0, 3.0), (2.0, 5.0), (2.0, 9.0)]
        assert store.latest("depth", level="immediate") == 9.0
        assert store.latest("missing") is None

    def test_names_and_label_sets_are_sorted(self):
        store = TimeSeriesStore()
        _point(store, 1.0, "b", 1.0)
        _point(store, 1.0, "a", 1.0, z="2")
        _point(store, 1.0, "a", 1.0, z="1")
        assert store.names() == ["a", "b"]
        assert store.label_sets("a") == [(("z", "1"),), (("z", "2"),)]

    def test_value_delta_over_half_open_window(self):
        store = TimeSeriesStore()
        for time, value in [(10.0, 5.0), (20.0, 8.0), (30.0, 14.0)]:
            _point(store, time, "total", value)
        # Baseline is the last sample at/before start; end is inclusive.
        assert store.value_delta("total", 10.0, 30.0) == pytest.approx(9.0)
        assert store.value_delta("total", 0.0, 30.0) == pytest.approx(14.0)
        assert store.value_delta("total", 20.0, 25.0) == pytest.approx(0.0)

    def test_value_delta_none_before_first_sample(self):
        store = TimeSeriesStore()
        _point(store, 50.0, "total", 3.0)
        assert store.value_delta("total", 0.0, 40.0) is None
        # A series first appearing inside the window counts from zero.
        assert store.value_delta("total", 0.0, 60.0) == pytest.approx(3.0)

    def test_delta_sum_matches_label_subsets(self):
        store = TimeSeriesStore()
        for time, value in [(10.0, 2.0), (20.0, 6.0)]:
            _point(store, time, "lat_count", value, level="relaxed", venue="vm")
        for time, value in [(10.0, 1.0), (20.0, 2.0)]:
            _point(store, time, "lat_count", value, level="immediate", venue="vm")
        assert store.delta_sum("lat_count", 10.0, 20.0) == pytest.approx(5.0)
        assert store.delta_sum(
            "lat_count", 10.0, 20.0, (("level", "relaxed"),)
        ) == pytest.approx(4.0)
        assert store.delta_sum(
            "lat_count", 10.0, 20.0, (("level", "gold"),)
        ) is None

    def test_export_jsonl_is_deterministic_and_ordered(self):
        def build() -> str:
            store = TimeSeriesStore()
            _point(store, 2.0, "b", 1.5, x="1")
            _point(store, 1.0, "a", 2.5)
            return store.export_jsonl()

        text = build()
        assert text == build()
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == '{"labels": {"x": "1"}, "name": "b", "time": 2.0, "value": 1.5}'
        assert text.endswith("\n")


class TestScrapeLoop:
    def test_fixed_cadence_regardless_of_event_interleaving(self):
        sim = Simulator()
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        loop = ScrapeLoop(sim, registry, interval_s=30.0)
        # Application events land at awkward, non-aligned times.
        for time, value in [(7.0, 3.0), (31.5, 8.0), (59.999, 1.0), (95.0, 6.0)]:
            sim.schedule_at(time, lambda v=value: gauge.set(v))
        sim.run_until(100.0)
        assert loop.store.scrape_times == [30.0, 60.0, 90.0]
        assert loop.store.series("depth") == [(30.0, 3.0), (60.0, 1.0), (90.0, 1.0)]

    def test_scrape_events_scheduled_out_of_order_still_tick_in_order(self):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        loop = ScrapeLoop(sim, registry, interval_s=10.0)
        # Schedule the later mutation first; the heap orders by time.
        sim.schedule_at(25.0, lambda: counter.inc(10))
        sim.schedule_at(5.0, lambda: counter.inc(1))
        sim.run_until(30.0)
        assert loop.store.series("events_total") == [
            (10.0, 1.0), (20.0, 1.0), (30.0, 11.0),
        ]

    def test_final_flush_is_idempotent_on_tick_boundary(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("depth").set(1)
        loop = ScrapeLoop(sim, registry, interval_s=30.0)
        sim.run_until(60.0)
        before = len(loop.store)
        loop.scrape()  # now == last tick → swallowed
        assert len(loop.store) == before
        sim.run_until(75.0)
        loop.scrape()  # mid-interval flush → one more snapshot
        assert loop.store.scrape_times == [30.0, 60.0, 75.0]

    def test_collectors_run_on_each_scrape(self):
        sim = Simulator()
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        queue: list[int] = []
        registry.add_collector(lambda: depth.set(len(queue)))
        loop = ScrapeLoop(sim, registry, interval_s=10.0)
        sim.schedule_at(15.0, lambda: queue.extend([1, 2]))
        sim.run_until(20.0)
        assert loop.store.series("queue_depth") == [(10.0, 0.0), (20.0, 2.0)]

    def test_listeners_receive_the_scrape_time(self):
        sim = Simulator()
        seen: list[float] = []
        loop = ScrapeLoop(sim, MetricsRegistry(), interval_s=10.0,
                          listeners=[seen.append])
        sim.run_until(30.0)
        assert seen == [10.0, 20.0, 30.0]
        # The pending tick holds the loop weakly: once its owner lets go,
        # the loop lapses instead of pinning the simulator in a cycle.
        del loop
        sim.run_until(60.0)
        assert seen == [10.0, 20.0, 30.0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ScrapeLoop(Simulator(), MetricsRegistry(), interval_s=0.0)
