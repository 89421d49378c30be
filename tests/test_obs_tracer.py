"""Unit tests for the span tracer (repro.obs.tracer).

Nothing writes a span: the recorders append transitions to the
lifecycle log, :class:`~repro.obs.lifecycle.Replay` renders them as span
facts and :class:`~repro.obs.tracer.SpanFold` folds those into spans.
Most tests here feed the fold facts directly, through :class:`Spans` —
start, instant, finish, set and end-of-trace facts as a replay renders
them — and read the spans as the tracer does; the rest read a
:class:`~repro.obs.Tracer` over a log of real transitions.
"""

import gc
import itertools
import json

from repro.obs import ROOT, Tracer
from repro.obs.lifecycle import (
    END_OPEN,
    EXECUTE,
    FAIL,
    FINISH,
    INSTANT,
    SET,
    START,
    VM_QUEUE,
    LifecycleLog,
)
from repro.obs.tracer import SpanFold


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Spans:
    """Span facts folded as the tracer folds them, written the way a
    replay renders them: span ids from one counter, times off ``clock``."""

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.fold = SpanFold()
        self.next_id = 0

    def _id(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def start(self, trace_id, name, parent=None, **attributes) -> int:
        span_id = self._id()
        self.fold.apply((START, trace_id, span_id, name, self.clock(), parent, attributes))
        return span_id

    def instant(self, trace_id, name, parent=None, status="ok", **attributes) -> None:
        self.fold.apply(
            (INSTANT, trace_id, self._id(), name, self.clock(), parent, attributes, status)
        )

    def finish(self, trace_id, span, status="ok", **attributes) -> None:
        self.fold.apply((FINISH, trace_id, span, self.clock(), status, attributes))

    def set(self, trace_id, span, **attributes) -> None:
        self.fold.apply((SET, trace_id, span, attributes))

    def end_open(self, trace_id, status="ok", **attributes) -> None:
        self.fold.apply((END_OPEN, trace_id, self.clock(), status, attributes))

    def spans(self, trace_id):
        return self.fold.spans.get(trace_id, [])

    def open_spans(self, trace_id):
        return [s for s in self.spans(trace_id) if s.end is None]

    def last(self, trace_id, name):
        return SpanFold._newest(self.spans(trace_id), name)

    def root(self, trace_id):
        return self.fold.roots.get(trace_id)

    def trace_ids(self):
        return sorted(self.fold.spans)

    def timeline(self, trace_id):
        return Tracer.render(trace_id, self.spans(trace_id))

    def export_json(self, trace_id):
        return json.dumps(self.timeline(trace_id), sort_keys=True, indent=2)


def span(tracer: Spans, trace_id: str, span_id: int):
    """The span ``span_id`` of ``trace_id`` as the fold holds it now."""
    return next(s for s in tracer.spans(trace_id) if s.span_id == span_id)


class TestSpanLifecycle:
    def test_start_and_finish_stamp_the_clock(self):
        clock = FakeClock()
        tracer = Spans(clock)
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
        tracer = Spans(clock)
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
        tracer = Spans()
        span_id = tracer.start("q1", "a")
        tracer.set("q1", span_id, x=1)
        tracer.set("q1", "a", y=2)
        assert span(tracer, "q1", span_id).attributes == {"x": 1, "y": 2}

    def test_span_holds_no_reference_to_its_tracer(self):
        # A transition leaves only atoms in the log: a read builds the
        # span afresh, holding neither the tracer nor a bound method of
        # it, and the log holds nothing the cycle collector tracks.
        log = LifecycleLog(FakeClock())
        tracer = Tracer(log)
        span_id = log.append("q1", VM_QUEUE)
        held = list(vars(span(tracer, "q1", span_id)).values())
        assert not any(isinstance(value, Tracer) for value in held)
        assert not any(getattr(value, "__self__", None) is tracer for value in held)
        assert not any(gc.is_tracked(cell) for cell in log._cells)
        log.append("q1", EXECUTE, "vm", "worker", 3)
        assert [s.name for s in tracer.open_spans("q1")] == ["execute"]
        assert tracer.last("q1", "execute").attributes == {"venue": "vm", "worker": 3}

    def test_instant_span_starts_and_ends_at_once(self):
        clock = FakeClock()
        tracer = Spans(clock)
        root = tracer.start("q1", "query")
        clock.now = 1.5
        tracer.instant("q1", "plan", status="error", error="boom")
        plan = tracer.last("q1", "plan")
        assert (plan.start, plan.end, plan.status) == (1.5, 1.5, "error")
        assert plan.parent_id == root
        assert plan.attributes == {"error": "boom"}


class TestParenting:
    def test_implicit_parent_is_innermost_open_span(self):
        tracer = Spans()
        outer = tracer.start("q1", "outer")
        inner = tracer.start("q1", "inner")
        leaf = tracer.start("q1", "leaf")
        assert span(tracer, "q1", inner).parent_id == outer
        assert span(tracer, "q1", leaf).parent_id == inner

    def test_finishing_pops_the_stack(self):
        tracer = Spans()
        outer = tracer.start("q1", "outer")
        tracer.finish("q1", tracer.start("q1", "first"))
        second = tracer.start("q1", "second")
        assert span(tracer, "q1", second).parent_id == outer

    def test_finishing_a_middle_span_keeps_the_newest_open_one_as_parent(self):
        ticks = itertools.count()
        tracer = Spans(lambda: float(next(ticks)))
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
        tracer = Spans()
        a = tracer.start("q1", "a")
        tracer.start("q1", "b")
        child_of_a = tracer.start("q1", "c", parent=a)
        assert span(tracer, "q1", child_of_a).parent_id == a
        child_of_b = tracer.start("q1", "d", parent="b")
        assert span(tracer, "q1", child_of_b).parent_id == a + 1

    def test_root_sentinel_forces_a_root(self):
        tracer = Spans()
        tracer.start("q1", "open")
        forced = tracer.start("q1", "root2", parent=ROOT)
        assert span(tracer, "q1", forced).parent_id is None
        assert tracer.root("q1") == forced

    def test_traces_are_independent(self):
        tracer = Spans()
        tracer.start("q1", "a")
        other = tracer.start("q2", "b")
        assert span(tracer, "q2", other).parent_id is None


class TestLast:
    def test_finds_the_newest_span_of_a_name_open_or_closed(self):
        tracer = Spans()
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
        tracer = Spans(clock)
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
        tracer = Spans()
        span_id = tracer.start("q1", "a")
        tracer.finish("q1", span_id, "ok")
        tracer.end_open("q1", "error")
        assert span(tracer, "q1", span_id).status == "ok"

    def test_closing_a_trace_without_spans_writes_nothing(self):
        # A transition that only closes spans opens no trace.
        log = LifecycleLog()
        log.append("ghost", FAIL, "error", "boom")
        tracer = Tracer(log)
        assert tracer.trace_ids() == []
        assert tracer.spans("ghost") == []
        assert tracer.export_all_json() == "[]\n"


class TestExport:
    def test_timeline_nests_children(self):
        clock = FakeClock()
        tracer = Spans(clock)
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
            tracer = Spans(clock)
            root = tracer.start("q1", "query", level="relaxed")
            clock.now = 0.5
            tracer.finish("q1", tracer.start("q1", "scan", bytes=7))
            clock.now = 2.0
            tracer.finish("q1", root)
            return tracer.export_json("q1")

        assert run() == run()
        json.loads(run())  # valid JSON

    def test_export_all_sorts_by_trace_id(self):
        log = LifecycleLog()
        log.append("q2", VM_QUEUE)
        log.append("q1", VM_QUEUE)
        tracer = Tracer(log)
        doc = json.loads(tracer.export_all_json())
        assert [t["trace_id"] for t in doc] == ["q1", "q2"]
        assert tracer.trace_ids() == ["q1", "q2"]
