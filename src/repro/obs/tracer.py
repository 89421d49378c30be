"""Per-query span trees on the simulator's virtual clock.

A :class:`Tracer` records one span tree per query (``trace_id`` is the
query id).  Spans are stamped with the *simulated* clock, and span ids
come from the lifecycle log's counter — so two runs with the same seed produce
byte-identical exported timelines, which is what makes traces usable as
regression artifacts (CI diffs them across PRs).

Parenting is implicit, OpenTelemetry-style: a started span is the
innermost open span of its trace, and later spans of the same trace
become its children until it finishes.  A span may also name its
parent — a span id, the trace's newest span of a name, or
:data:`~repro.obs.lifecycle.ROOT` for a forced root.

Nothing writes a span.  Each transition the recorders in
:mod:`repro.obs.recorder` append to the
:class:`~repro.obs.lifecycle.LifecycleLog` names the spans it opens and
closes; :class:`~repro.obs.lifecycle.Replay` renders them as span facts
and :class:`SpanFold` folds those into :class:`Span` objects when
something reads the tracer — a one-query read from that query's entries
alone.  A span's ``end`` is the only record of whether it is open, so
the implicit parent is the newest span of the trace that has not ended
when the child starts.

There is no inert twin: the tracer of :meth:`Instrumentation.disabled()
<repro.obs.Instrumentation.disabled>` is a real one over a log nothing
writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.lifecycle import (
    END_OPEN,
    FINISH,
    INSTANT,
    ROOT,
    SET,
    START,
    LifecycleLog,
    Replay,
)


@dataclass
class Span:
    """One timed operation within a query's lifecycle, as folded from the
    log.

    ``status`` is ``"open"`` until a finish stamps a terminal status:
    ``"ok"``, ``"error"``, ``"retry"`` (a failed attempt that was
    re-tried), or ``"cancelled"``.
    """

    span_id: int
    trace_id: str
    name: str
    start: float
    parent_id: int | None = None
    end: float | None = None
    status: str = "open"
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        return None if self.end is None else self.end - self.start


class SpanFold:
    """The spans of every trace a forward pass over the log has seen.

    Feed it a :class:`~repro.obs.lifecycle.Replay`'s facts in log order
    with :meth:`apply`; facts of other kinds are ignored.  ``spans``
    holds each trace's spans in creation order, as they stand after the
    last fact applied.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[Span]] = {}
        self.by_id: dict[int, Span] = {}
        #: Trace id -> its newest span started with ``parent=ROOT``.
        self.roots: dict[str, int] = {}

    def apply(self, fact: tuple) -> None:
        kind = fact[0]
        if kind == START:
            self._open(fact)
        elif kind == INSTANT:
            span = self._open(fact)
            span.status = fact[7]
            span.end = span.start
        elif kind == FINISH:
            _, trace_id, ref, end, status, attributes = fact
            span = self._resolve(trace_id, ref)
            if span is not None:
                self._close(span, end, status, attributes)
        elif kind == SET:
            _, trace_id, ref, attributes = fact
            span = self._resolve(trace_id, ref)
            if span is not None:
                span.attributes.update(attributes)
        elif kind == END_OPEN:
            _, trace_id, end, status, attributes = fact
            for span in reversed(self.spans.get(trace_id, ())):
                self._close(span, end, status, attributes)

    def _open(self, fact: tuple) -> Span:
        trace_id, span_id, name, start, parent, attributes = fact[1:7]
        spans = self.spans.setdefault(trace_id, [])
        if parent is ROOT:
            parent_id = None
            self.roots[trace_id] = span_id
        elif type(parent) is int:
            parent_id = parent
        else:
            named = self._newest(spans, parent) if parent is not None else None
            if named is None:  # the newest span that has not ended
                named = next((s for s in reversed(spans) if s.end is None), None)
            parent_id = named.span_id if named is not None else None
        span = Span(span_id, trace_id, name, start, parent_id, attributes=attributes)
        spans.append(span)
        self.by_id[span_id] = span
        return span

    @staticmethod
    def _newest(spans: list[Span], name: str) -> Span | None:
        for span in reversed(spans):
            if span.name == name:
                return span
        return None

    def _resolve(self, trace_id: str, ref: int | str) -> Span | None:
        """The trace's span with id ``ref``, or its newest called ``ref``."""
        if type(ref) is int:
            span = self.by_id.get(ref)
            return span if span is not None and span.trace_id == trace_id else None
        return self._newest(self.spans.get(trace_id, []), ref)

    @staticmethod
    def _close(span: Span, end: float, status: str, attributes: dict) -> None:
        """Finishing is idempotent: a closed span keeps its first close,
        so safety-net closers compose with explicit ones in any order."""
        if span.end is None:
            span.attributes.update(attributes)
            span.status = status
            span.end = end


class Tracer:
    """Span trees keyed by trace id, folded from a lifecycle log.

    Args:
        log: The lifecycle log to read; an observed bundle shares one
            with its journal and activity registry.  Defaults to a
            private (and so empty) one.
    """

    def __init__(self, log: LifecycleLog | None = None) -> None:
        self._log = log if log is not None else LifecycleLog()

    @staticmethod
    def _replay(entries) -> SpanFold:
        """The spans ``entries`` (in log order) leave."""
        fold, replay = SpanFold(), Replay()
        for entry in entries:
            for fact in replay.apply(entry):
                fold.apply(fact)
        return fold

    def _fold(self, trace_id: str) -> list[Span]:
        return self._replay(self._log.of(trace_id)).spans.get(trace_id, [])

    # -- inspection ----------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Every trace with a span, sorted."""
        return sorted(self._replay(self._log).spans)

    def spans(self, trace_id: str) -> list[Span]:
        """All spans of the trace, in creation order."""
        return self._fold(trace_id)

    def open_spans(self, trace_id: str) -> list[Span]:
        """The spans of the trace that have not ended, in creation order."""
        return [span for span in self._fold(trace_id) if span.end is None]

    def last(self, trace_id: str, name: str) -> Span | None:
        """The most recently started span called ``name`` in the trace,
        open or closed."""
        return SpanFold._newest(self._fold(trace_id), name)

    # -- export --------------------------------------------------------------

    @staticmethod
    def render(trace_id: str, spans: list[Span]) -> dict:
        """The span forest ``spans`` of ``trace_id`` as nested plain dicts."""
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for span in spans:
            node = {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "status": span.status,
                "attributes": span.attributes,
                "children": [],
            }
            nodes[span.span_id] = node
            if span.parent_id is not None and span.parent_id in nodes:
                nodes[span.parent_id]["children"].append(node)
            else:
                roots.append(node)
        return {"trace_id": trace_id, "spans": roots}

    def timeline(self, trace_id: str) -> dict:
        """The span forest of ``trace_id`` as nested plain dicts."""
        return self.render(trace_id, self._fold(trace_id))

    def export_json(self, trace_id: str) -> str:
        """Deterministic JSON timeline — byte-identical across same-seed
        runs (virtual-clock timestamps, counter span ids, sorted keys)."""
        return json.dumps(self.timeline(trace_id), sort_keys=True, indent=2)

    def export_all_json(self) -> str:
        """Every trace, sorted by trace id, as one JSON document."""
        traces = self._replay(self._log).spans
        return json.dumps(
            [self.render(trace_id, traces[trace_id]) for trace_id in sorted(traces)],
            sort_keys=True,
            indent=2,
        ) + "\n"
