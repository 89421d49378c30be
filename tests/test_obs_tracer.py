"""Unit tests for the span tracer (repro.obs.tracer).

Writes hand back span ids; every read folds the log, so each check
reads the span afresh with :func:`span`.
"""

import gc
import itertools
import json

from repro.obs import ROOT, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span(tracer: Tracer, trace_id: str, span_id: int):
    """The span ``span_id`` of ``trace_id`` as the tracer reads it now."""
    return next(s for s in tracer.spans(trace_id) if s.span_id == span_id)


class TestSpanLifecycle:
    def test_start_and_finish_stamp_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span_id = tracer.start("q1", "execute", venue="vm")
        clock.now = 2.5
        tracer.finish("q1", span_id, "ok", bytes_scanned=10)
        done = span(tracer, "q1", span_id)
        assert done.start == 0.0
        assert done.end == 2.5
        assert done.duration_s == 2.5
        assert done.status == "ok"
        assert done.attributes == {"venue": "vm", "bytes_scanned": 10}

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span_id = tracer.start("q1", "a")
        clock.now = 1.0
        tracer.finish("q1", span_id, "error", error="boom")
        clock.now = 5.0
        tracer.finish("q1", span_id, "ok")  # no-op: already closed
        tracer.finish("q1", "a", "ok")  # by name too
        done = span(tracer, "q1", span_id)
        assert done.end == 1.0
        assert done.status == "error"

    def test_set_chains_attributes(self):
        tracer = Tracer()
        span_id = tracer.start("q1", "a")
        tracer.set("q1", span_id, x=1)
        tracer.set("q1", "a", y=2)
        assert span(tracer, "q1", span_id).attributes == {"x": 1, "y": 2}

    def test_span_holds_no_reference_to_its_tracer(self):
        # Writing a span leaves only atoms in the log: a read builds the
        # span afresh, holding neither the tracer nor a bound method of
        # it, and the log holds nothing the cycle collector tracks.
        tracer = Tracer(FakeClock())
        span_id = tracer.start("q1", "a", level="relaxed")
        held = list(vars(span(tracer, "q1", span_id)).values())
        assert not any(isinstance(value, Tracer) for value in held)
        assert not any(getattr(value, "__self__", None) is tracer for value in held)
        assert not any(gc.is_tracked(cell) for cell in tracer._log._cells)
        tracer.finish("q1", span_id)
        assert tracer.open_spans("q1") == []

    def test_instant_span_starts_and_ends_at_once(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        root = tracer.start("q1", "query")
        clock.now = 1.5
        tracer.instant("q1", "plan", status="error", error="boom")
        plan = tracer.last("q1", "plan")
        assert (plan.start, plan.end, plan.status) == (1.5, 1.5, "error")
        assert plan.parent_id == root
        assert plan.attributes == {"error": "boom"}


class TestParenting:
    def test_implicit_parent_is_innermost_open_span(self):
        tracer = Tracer()
        outer = tracer.start("q1", "outer")
        inner = tracer.start("q1", "inner")
        leaf = tracer.start("q1", "leaf")
        assert span(tracer, "q1", inner).parent_id == outer
        assert span(tracer, "q1", leaf).parent_id == inner

    def test_finishing_pops_the_stack(self):
        tracer = Tracer()
        outer = tracer.start("q1", "outer")
        tracer.finish("q1", tracer.start("q1", "first"))
        second = tracer.start("q1", "second")
        assert span(tracer, "q1", second).parent_id == outer

    def test_finishing_a_middle_span_keeps_the_newest_open_one_as_parent(self):
        ticks = itertools.count()
        tracer = Tracer(lambda: float(next(ticks)))
        outer = tracer.start("q1", "outer")  # t=0
        middle = tracer.start("q1", "middle")  # t=1
        inner = tracer.start("q1", "inner")  # t=2
        tracer.finish("q1", middle)  # t=3
        leaf = tracer.start("q1", "leaf")  # t=4
        assert span(tracer, "q1", leaf).parent_id == inner
        assert [s.name for s in tracer.open_spans("q1")] == ["outer", "inner", "leaf"]
        # end_open closes what is left newest first, at one clock reading.
        tracer.end_open("q1", "cancelled")  # t=5
        spans = {s.name: s for s in tracer.spans("q1")}
        assert [spans[n].end for n in ("leaf", "inner", "outer")] == [5.0] * 3
        assert [spans[n].status for n in ("outer", "middle", "inner", "leaf")] == [
            "cancelled", "ok", "cancelled", "cancelled",
        ]
        assert spans["middle"].end == 3.0

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        a = tracer.start("q1", "a")
        tracer.start("q1", "b")
        child_of_a = tracer.start("q1", "c", parent=a)
        assert span(tracer, "q1", child_of_a).parent_id == a
        child_of_b = tracer.start("q1", "d", parent="b")
        assert span(tracer, "q1", child_of_b).parent_id == a + 1

    def test_root_sentinel_forces_a_root(self):
        tracer = Tracer()
        tracer.start("q1", "open")
        forced = tracer.start("q1", "root2", parent=ROOT)
        assert span(tracer, "q1", forced).parent_id is None
        assert tracer.root("q1") == forced

    def test_traces_are_independent(self):
        tracer = Tracer()
        tracer.start("q1", "a")
        other = tracer.start("q2", "b")
        assert span(tracer, "q2", other).parent_id is None


class TestLast:
    def test_finds_the_newest_span_of_a_name_open_or_closed(self):
        tracer = Tracer()
        first = tracer.start("q1", "execute")
        tracer.finish("q1", first, "retry")
        second = tracer.start("q1", "execute")
        tracer.start("q2", "execute")
        assert tracer.last("q1", "execute").span_id == second
        tracer.finish("q1", "execute")
        newest = tracer.last("q1", "execute")
        assert (newest.span_id, newest.status) == (second, "ok")
        assert tracer.last("q1", "cf_invoke") is None
        assert tracer.last("ghost", "execute") is None


class TestEndOpen:
    def test_closes_innermost_first_and_counts(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.start("q1", "outer")
        tracer.start("q1", "inner")
        clock.now = 3.0
        assert len(tracer.open_spans("q1")) == 2
        tracer.end_open("q1", "cancelled", error="stop")
        statuses = [s.status for s in tracer.spans("q1")]
        assert statuses == ["cancelled", "cancelled"]
        assert all(s.end == 3.0 for s in tracer.spans("q1"))
        assert all(s.attributes == {"error": "stop"} for s in tracer.spans("q1"))
        assert tracer.open_spans("q1") == []

    def test_composes_with_explicit_finish(self):
        tracer = Tracer()
        span_id = tracer.start("q1", "a")
        tracer.finish("q1", span_id, "ok")
        tracer.end_open("q1", "error")
        assert span(tracer, "q1", span_id).status == "ok"

    def test_closing_a_trace_without_spans_writes_nothing(self):
        tracer = Tracer()
        tracer.end_open("ghost", "error")
        tracer.finish("ghost", "queue")
        assert tracer.trace_ids() == []


class TestExport:
    def test_timeline_nests_children(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        root = tracer.start("q1", "query")
        tracer.finish("q1", tracer.start("q1", "plan"))
        clock.now = 1.0
        tracer.finish("q1", root)
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
            tracer.finish("q1", tracer.start("q1", "scan", bytes=7))
            clock.now = 2.0
            tracer.finish("q1", root)
            return tracer.export_json("q1")

        assert run() == run()
        json.loads(run())  # valid JSON

    def test_export_all_sorts_by_trace_id(self):
        tracer = Tracer()
        tracer.finish("q2", tracer.start("q2", "b"))
        tracer.finish("q1", tracer.start("q1", "a"))
        doc = json.loads(tracer.export_all_json())
        assert [t["trace_id"] for t in doc] == ["q1", "q2"]
