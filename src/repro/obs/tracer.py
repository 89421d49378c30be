"""Per-query span trees on the simulator's virtual clock.

A :class:`Tracer` records one span tree per query (``trace_id`` is the
query id).  Spans are stamped with the *simulated* clock, and span ids
come from a per-tracer counter — so two runs with the same seed produce
byte-identical exported timelines, which is what makes traces usable as
regression artifacts (CI diffs them across PRs).

Parenting is implicit, OpenTelemetry-style: starting a span makes it the
innermost open span of its trace, and subsequent spans of the same trace
become its children until it finishes.  An explicit ``parent`` — a span
id, or a name for the trace's newest span so called — or ``parent=ROOT``
for a forced root overrides this.

Writing a span builds nothing: :meth:`Tracer.start`, :meth:`~Tracer.finish`,
:meth:`~Tracer.instant`, :meth:`~Tracer.set` and :meth:`~Tracer.end_open`
each append one entry to the :class:`~repro.obs.lifecycle.LifecycleLog`,
and only a started span's id is handed back.  :class:`Span` objects, timelines and exports are folded
from the log when read (:class:`SpanFold`), a one-query read from that
query's entries alone.  A span's ``end`` is the only record of whether
it is open, so the implicit parent is the newest span of the trace that
has not ended at the moment the child starts.

There is no inert twin.  The two recorders in :mod:`repro.obs.recorder`
are the only writers, and an unobserved stack builds neither of them, so
the tracer in :meth:`Instrumentation.disabled()
<repro.obs.Instrumentation.disabled>` is a real one that simply stays
empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.lifecycle import LifecycleLog, mapping_at

#: Sentinel for ``Tracer.start(parent=ROOT)``: force a root span even when
#: other spans of the trace are open.
ROOT = object()

#: Entry kinds the tracer appends to the lifecycle log, with their
#: fields; each ends with the attributes, flat.
START = "span.start"  # span_id, name, start, parent, attributes
INSTANT = "span.instant"  # span_id, name, at, parent, status, attributes
FINISH = "span.finish"  # span, end, status, attributes
SET = "span.set"  # span, attributes
END_OPEN = "span.end_open"  # end, status, attributes


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

    Feed it entries in log order with :meth:`apply`; entries of other
    kinds are ignored.  ``spans`` holds each trace's spans in creation
    order, as they stand after the last entry applied.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list[Span]] = {}
        self.by_id: dict[int, Span] = {}
        #: Trace id -> its newest span started with ``parent=ROOT``.
        self.roots: dict[str, int] = {}

    @staticmethod
    def opened_root(entry: tuple) -> int | None:
        """The id of the span ``entry`` starts with ``parent=ROOT``, or
        None if it starts no such span."""
        if (entry[2] == START or entry[2] == INSTANT) and entry[6] is ROOT:
            return entry[3]
        return None

    def apply(self, entry: tuple) -> None:
        kind = entry[2]
        if kind == START:
            self._open(entry, mapping_at(entry, 7))
        elif kind == INSTANT:
            span = self._open(entry, mapping_at(entry, 8))
            span.status = entry[7]
            span.end = span.start
        elif kind == FINISH:
            trace_id, _, _, ref, end, status = entry[:6]
            span = self._resolve(trace_id, ref)
            if span is not None:
                self._close(span, end, status, mapping_at(entry, 6))
        elif kind == SET:
            trace_id, _, _, ref = entry[:4]
            span = self._resolve(trace_id, ref)
            if span is not None:
                span.attributes.update(mapping_at(entry, 4))
        elif kind == END_OPEN:
            trace_id, _, _, end, status = entry[:5]
            attributes = mapping_at(entry, 5)
            for span in reversed(self.spans.get(trace_id, ())):
                self._close(span, end, status, attributes)

    def _open(self, entry: tuple, attributes: dict) -> Span:
        trace_id, _, _, span_id, name, start, parent = entry[:7]
        spans = self.spans.setdefault(trace_id, [])
        if self.opened_root(entry) is not None:
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
    """Records span trees keyed by trace id, on a caller-supplied clock.

    Args:
        clock: Zero-argument callable returning the current time — pass
            the simulator's (``lambda: sim.now``) so span timestamps are
            virtual and reproducible.  Defaults to a frozen clock at 0.
        log: The lifecycle log to write; an observed bundle shares one
            with its journal and activity registry.  Defaults to a
            private one.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        log: LifecycleLog | None = None,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._log = log if log is not None else LifecycleLog()
        self._chain = self._log.chain()
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def start(
        self,
        trace_id: str,
        name: str,
        parent: int | str | object | None = None,
        **attributes: object,
    ) -> int:
        """Open a span and return its id; it becomes the innermost open
        span of its trace.  ``parent`` is a span id, the name of the
        trace's newest span so called (the implicit parent if there is
        none), or :data:`ROOT`."""
        span_id = self._next_id
        self._next_id = span_id + 1
        self._chain.append(
            trace_id, START, span_id, name, self._clock(), parent,
            *attributes, *attributes.values(),
        )
        return span_id

    def instant(
        self,
        trace_id: str,
        name: str,
        parent: int | str | object | None = None,
        status: str = "ok",
        **attributes: object,
    ) -> None:
        """A span that starts and finishes now, with ``status``: what
        :meth:`finish` of a just-started span records, in one entry."""
        span_id = self._next_id
        self._next_id = span_id + 1
        self._chain.append(
            trace_id, INSTANT, span_id, name, self._clock(), parent, status,
            *attributes, *attributes.values(),
        )

    def finish(
        self, trace_id: str, span: int | str, status: str = "ok", **attributes: object
    ) -> None:
        """Close ``span`` — one of the trace's span ids, or the name of its
        newest span so called — at the current clock time.  A no-op for
        a span already closed, or for a name the trace has no span of."""
        if trace_id in self._chain.heads:
            self._chain.append(
                trace_id, FINISH, span, self._clock(), status,
                *attributes, *attributes.values(),
            )

    def set(self, trace_id: str, span: int | str, **attributes: object) -> None:
        """Attach attributes to ``span`` (as in :meth:`finish`), open or not."""
        if trace_id in self._chain.heads:
            self._chain.append(
                trace_id, SET, span, *attributes, *attributes.values()
            )

    def end_open(self, trace_id: str, status: str = "ok", **attributes: object) -> None:
        """Close every still-open span of ``trace_id``, newest first.

        The safety net for error, retry-exhaustion, and cancellation
        paths: no code path may leak an open span past query completion.
        """
        if trace_id in self._chain.heads:
            self._chain.append(
                trace_id, END_OPEN, self._clock(), status,
                *attributes, *attributes.values(),
            )

    def root(self, trace_id: str) -> int | None:
        """The id of the trace's newest span started with ``parent=ROOT``
        (:attr:`SpanFold.roots`, read off the trace's entries without
        building its spans)."""
        for entry in reversed(self._chain.of(trace_id)):
            root = SpanFold.opened_root(entry)
            if root is not None:
                return root
        return None

    # -- inspection ----------------------------------------------------------

    def _fold(self, trace_id: str) -> list[Span]:
        fold = SpanFold()
        for entry in self._chain.of(trace_id):
            fold.apply(entry)
        return fold.spans.get(trace_id, [])

    def _fold_all(self) -> dict[str, list[Span]]:
        fold = SpanFold()
        for entry in self._log:
            fold.apply(entry)
        return fold.spans

    def trace_ids(self) -> list[str]:
        """Every trace with a span, sorted (closing a span of a trace
        that has none writes nothing)."""
        return sorted(self._chain.heads)

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
    def _timeline(trace_id: str, spans: list[Span]) -> dict:
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
        return self._timeline(trace_id, self._fold(trace_id))

    def export_json(self, trace_id: str) -> str:
        """Deterministic JSON timeline — byte-identical across same-seed
        runs (virtual-clock timestamps, counter span ids, sorted keys)."""
        return json.dumps(self.timeline(trace_id), sort_keys=True, indent=2)

    def export_all_json(self) -> str:
        """Every trace, sorted by trace id, as one JSON document."""
        traces = self._fold_all()
        return json.dumps(
            [self._timeline(trace_id, traces[trace_id]) for trace_id in sorted(traces)],
            sort_keys=True,
            indent=2,
        ) + "\n"
