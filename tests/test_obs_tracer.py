"""Unit tests for the span tracer (repro.obs.tracer)."""

import itertools
import json

from repro.obs import ROOT, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpanLifecycle:
    def test_start_and_finish_stamp_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start("q1", "execute", venue="vm")
        clock.now = 2.5
        span.finish("ok", bytes_scanned=10)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration_s == 2.5
        assert span.status == "ok"
        assert span.attributes == {"venue": "vm", "bytes_scanned": 10}

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start("q1", "a")
        clock.now = 1.0
        span.finish("error", error="boom")
        clock.now = 5.0
        span.finish("ok")  # no-op: already closed
        assert span.end == 1.0
        assert span.status == "error"

    def test_set_chains_attributes(self):
        tracer = Tracer()
        span = tracer.start("q1", "a").set(x=1).set(y=2)
        assert span.attributes == {"x": 1, "y": 2}

    def test_span_holds_no_reference_to_its_tracer(self):
        # A span's ``end`` is the only record of whether it is open: it
        # finishes on the tracer's clock without calling back into the
        # tracer, so it neither holds the tracer nor a bound method of it.
        tracer = Tracer(FakeClock())
        span = tracer.start("q1", "a")
        held = list(vars(span).values())
        assert not any(isinstance(value, Tracer) for value in held)
        assert not any(getattr(value, "__self__", None) is tracer for value in held)
        span.finish()
        assert tracer.open_spans("q1") == []


class TestParenting:
    def test_implicit_parent_is_innermost_open_span(self):
        tracer = Tracer()
        outer = tracer.start("q1", "outer")
        inner = tracer.start("q1", "inner")
        leaf = tracer.start("q1", "leaf")
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id

    def test_finishing_pops_the_stack(self):
        tracer = Tracer()
        outer = tracer.start("q1", "outer")
        tracer.start("q1", "first").finish()
        second = tracer.start("q1", "second")
        assert second.parent_id == outer.span_id

    def test_finishing_a_middle_span_keeps_the_newest_open_one_as_parent(self):
        ticks = itertools.count()
        tracer = Tracer(lambda: float(next(ticks)))
        outer = tracer.start("q1", "outer")  # t=0
        middle = tracer.start("q1", "middle")  # t=1
        inner = tracer.start("q1", "inner")  # t=2
        middle.finish()  # t=3
        leaf = tracer.start("q1", "leaf")  # t=4
        assert leaf.parent_id == inner.span_id
        assert [s.name for s in tracer.open_spans("q1")] == ["outer", "inner", "leaf"]
        # end_open closes what is left newest first: each close reads the
        # ticking clock once, so the end stamps give the order.
        assert tracer.end_open("q1", "cancelled") == 3
        assert (leaf.end, inner.end, outer.end) == (5.0, 6.0, 7.0)
        assert [s.status for s in (outer, middle, inner, leaf)] == [
            "cancelled", "ok", "cancelled", "cancelled",
        ]
        assert middle.end == 3.0

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        a = tracer.start("q1", "a")
        tracer.start("q1", "b")
        child_of_a = tracer.start("q1", "c", parent=a)
        assert child_of_a.parent_id == a.span_id

    def test_root_sentinel_forces_a_root(self):
        tracer = Tracer()
        tracer.start("q1", "open")
        forced = tracer.start("q1", "root2", parent=ROOT)
        assert forced.parent_id is None

    def test_traces_are_independent(self):
        tracer = Tracer()
        tracer.start("q1", "a")
        other = tracer.start("q2", "b")
        assert other.parent_id is None


class TestLast:
    def test_finds_the_newest_span_of_a_name_open_or_closed(self):
        tracer = Tracer()
        first = tracer.start("q1", "execute")
        first.finish("retry")
        second = tracer.start("q1", "execute")
        tracer.start("q2", "execute")
        assert tracer.last("q1", "execute") is second
        second.finish()
        assert tracer.last("q1", "execute") is second
        assert tracer.last("q1", "cf_invoke") is None
        assert tracer.last("ghost", "execute") is None


class TestEndOpen:
    def test_closes_innermost_first_and_counts(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.start("q1", "outer")
        tracer.start("q1", "inner")
        clock.now = 3.0
        assert tracer.end_open("q1", "cancelled", error="stop") == 2
        statuses = [s.status for s in tracer.spans("q1")]
        assert statuses == ["cancelled", "cancelled"]
        assert all(s.end == 3.0 for s in tracer.spans("q1"))
        assert tracer.open_spans("q1") == []

    def test_composes_with_explicit_finish(self):
        tracer = Tracer()
        span = tracer.start("q1", "a")
        span.finish("ok")
        assert tracer.end_open("q1", "error") == 0
        assert span.status == "ok"


class TestExport:
    def test_timeline_nests_children(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        root = tracer.start("q1", "query")
        tracer.start("q1", "plan").finish()
        clock.now = 1.0
        root.finish()
        timeline = tracer.timeline("q1")
        assert timeline["trace_id"] == "q1"
        assert [s["name"] for s in timeline["spans"]] == ["query"]
        assert [c["name"] for c in timeline["spans"][0]["children"]] == ["plan"]

    def test_export_json_is_deterministic(self):
        def run():
            clock = FakeClock()
            tracer = Tracer(clock)
            root = tracer.start("q1", "query", level="relaxed")
            clock.now = 0.5
            tracer.start("q1", "scan", bytes=7).finish()
            clock.now = 2.0
            root.finish()
            return tracer.export_json("q1")

        assert run() == run()
        json.loads(run())  # valid JSON

    def test_export_all_sorts_by_trace_id(self):
        tracer = Tracer()
        tracer.start("q2", "b").finish()
        tracer.start("q1", "a").finish()
        doc = json.loads(tracer.export_all_json())
        assert [t["trace_id"] for t in doc] == ["q1", "q2"]
