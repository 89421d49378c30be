"""Unit tests for RNG streams and metric tracing."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, hash_name
from repro.sim.trace import Trace, TracePoint, downsample


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("arrivals").integers(0, 1000, 10)
        b = RngRegistry(42).stream("arrivals").integers(0, 1000, 10)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        registry = RngRegistry(42)
        a = registry.stream("arrivals").integers(0, 1000, 10)
        b = registry.stream("failures").integers(0, 1000, 10)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").integers(0, 1000, 10)
        b = RngRegistry(2).stream("x").integers(0, 1000, 10)
        assert not (a == b).all()

    def test_stream_is_stateful_singleton(self):
        registry = RngRegistry(0)
        first = registry.stream("s")
        assert registry.stream("s") is first
        draw1 = first.integers(0, 1000)
        draw2 = registry.stream("s").integers(0, 1000)
        # Statefulness: consecutive draws are from one advancing stream.
        assert isinstance(draw1, type(draw2))

    def test_order_of_creation_does_not_matter(self):
        r1 = RngRegistry(9)
        r1.stream("b")
        a1 = r1.stream("a").integers(0, 1000, 5)
        r2 = RngRegistry(9)
        a2 = r2.stream("a").integers(0, 1000, 5)
        assert (a1 == a2).all()

    def test_hash_name_is_stable(self):
        assert hash_name("vm-cluster") == hash_name("vm-cluster")
        assert hash_name("a") != hash_name("b")


class TestTrace:
    def test_record_and_series(self):
        trace = Trace()
        trace.record("vms", 0.0, 2)
        trace.record("vms", 10.0, 4)
        assert trace.values("vms") == [2, 4]
        assert trace.times("vms") == [0.0, 10.0]

    def test_missing_metric_is_empty(self):
        trace = Trace()
        assert trace.series("nope") == []
        assert trace.last("nope") is None

    def test_last(self):
        trace = Trace()
        trace.record("q", 1.0, 5)
        trace.record("q", 2.0, 7)
        assert trace.last("q") == TracePoint(2.0, 7)

    def test_value_at_step_semantics(self):
        trace = Trace()
        trace.record("vms", 10.0, 2)
        trace.record("vms", 20.0, 5)
        assert trace.value_at("vms", 5.0) == 0.0
        assert trace.value_at("vms", 10.0) == 2
        assert trace.value_at("vms", 15.0) == 2
        assert trace.value_at("vms", 25.0) == 5

    def test_time_weighted_mean(self):
        trace = Trace()
        trace.record("c", 0.0, 0)
        trace.record("c", 10.0, 10)
        # 0 for [0,10), 10 for [10,20) -> mean 5 over [0,20)
        assert trace.time_weighted_mean("c", 0.0, 20.0) == pytest.approx(5.0)

    def test_time_weighted_mean_with_initial(self):
        trace = Trace()
        trace.record("c", 10.0, 0)
        assert trace.time_weighted_mean("c", 0.0, 20.0, initial=4.0) == pytest.approx(
            2.0
        )

    def test_time_weighted_mean_empty_interval(self):
        trace = Trace()
        trace.record("c", 0.0, 3)
        assert trace.time_weighted_mean("c", 5.0, 5.0) == 3

    def test_merge_interleaves_sorted(self):
        a = Trace()
        a.record("m", 1.0, 1)
        a.record("m", 3.0, 3)
        b = Trace()
        b.record("m", 2.0, 2)
        a.merge(b)
        assert a.values("m") == [1, 2, 3]

    def test_metrics_sorted(self):
        trace = Trace()
        trace.record("b", 0, 0)
        trace.record("a", 0, 0)
        assert trace.metrics() == ["a", "b"]

    def test_iter_points(self):
        trace = Trace()
        trace.record("a", 0.0, 1)
        trace.record("b", 1.0, 2)
        points = list(trace.iter_points())
        assert points == [("a", TracePoint(0.0, 1)), ("b", TracePoint(1.0, 2))]


class TestDownsample:
    def test_keeps_last_per_bucket(self):
        points = [TracePoint(t, t) for t in [0.1, 0.2, 1.5, 1.9, 3.0]]
        result = downsample(points, 1.0)
        assert [p.value for p in result] == [0.2, 1.9, 3.0]

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            downsample([], 0)

    def test_empty(self):
        assert downsample([], 5.0) == []


class TestTraceCsv:
    def test_csv_shape(self):
        trace = Trace()
        trace.record("vm.workers", 0.0, 1)
        trace.record("vm.workers", 10.0, 3)
        trace.record("q", 5.0, 1, tag="sq-1")
        csv = trace.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,time,value,tag"
        assert "vm.workers,0.0,1,," not in csv  # no double commas beyond tag
        assert "q,5.0,1,sq-1" in lines

    def test_csv_metric_filter(self):
        trace = Trace()
        trace.record("a", 0.0, 1)
        trace.record("b", 0.0, 2)
        csv = trace.to_csv(metrics=["a"])
        assert "a,0.0,1" in csv and "b,0.0,2" not in csv

    def test_csv_escapes_commas_in_tags(self):
        trace = Trace()
        trace.record("m", 0.0, 1, tag="x,y")
        assert "x;y" in trace.to_csv()


# -- the bisecting readers against the linear scans they replaced ------------


def scan_value_at(points, time, default=0.0):
    """The replaced ``Trace.value_at`` loop, over one series."""
    result = default
    for point in points:
        if point.time > time:
            break
        result = point.value
    return result


def scan_time_weighted_mean(points, start, end, initial=0.0):
    """The replaced ``Trace.time_weighted_mean`` loop, over one series."""
    if end <= start:
        return scan_value_at(points, start, initial)
    total = 0.0
    current_value = initial
    current_time = start
    for point in points:
        if point.time <= start:
            current_value = point.value
            continue
        if point.time >= end:
            break
        total += current_value * (point.time - current_time)
        current_value = point.value
        current_time = point.time
    total += current_value * (end - current_time)
    return total / (end - start)


def random_trace(rng, samples):
    """Non-decreasing times on a coarse grid, so ties (several samples at
    one time) are common and window edges land on sample times."""
    trace = Trace()
    times = np.sort(rng.integers(0, 20, samples)) * 0.25
    for time in times:
        trace.record("m", float(time), float(rng.normal(3.0, 2.0)))
    return trace


class TestBisectingReadersMatchScans:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_series_and_windows(self, seed):
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, int(rng.integers(0, 30)))
        points = trace.series("m")
        # Every sample time (ties included), one time off the grid, and
        # times before and past the series; start == end is among the pairs.
        edges = sorted({p.time for p in points} | {-1.0, 0.0, 2.6, 5.0, 6.0})
        for start in edges:
            assert trace.value_at("m", start, 7.0) == scan_value_at(points, start, 7.0)
            for end in edges:
                got = trace.time_weighted_mean("m", start, end, initial=1.5)
                want = scan_time_weighted_mean(points, start, end, initial=1.5)
                assert got == want  # bit-identical, not approximately

    def test_empty_series(self):
        trace = Trace()
        assert trace.value_at("none", 3.0, 4.0) == scan_value_at([], 3.0, 4.0)
        for start, end in ((0.0, 5.0), (5.0, 5.0), (5.0, 1.0)):
            assert trace.time_weighted_mean(
                "none", start, end, initial=2.0
            ) == scan_time_weighted_mean([], start, end, initial=2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_traces(self, seed):
        rng = np.random.default_rng(100 + seed)
        merged = random_trace(rng, 15)
        merged.merge(random_trace(rng, 15))
        points = merged.series("m")
        assert [p.time for p in points] == sorted(p.time for p in points)
        for start in np.arange(-0.5, 5.5, 0.25):
            assert merged.value_at("m", start) == scan_value_at(points, start)
            for end in (start, start + 0.25, start + 1.75, 6.0):
                assert merged.time_weighted_mean(
                    "m", start, end
                ) == scan_time_weighted_mean(points, start, end)
