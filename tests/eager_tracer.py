# The eager span tracer this package replaced with folds over the lifecycle
# log, kept verbatim as the oracle of tests/test_lifecycle_folds.py.
"""Per-query span trees on the simulator's virtual clock.

A :class:`Tracer` records one span tree per query (``trace_id`` is the
query id).  Spans are stamped with the *simulated* clock, and span ids
come from a per-tracer counter — so two runs with the same seed produce
byte-identical exported timelines, which is what makes traces usable as
regression artifacts (CI diffs them across PRs).

Parenting is implicit, OpenTelemetry-style: starting a span makes it the
innermost open span of its trace, and subsequent spans of the same trace
become its children until it finishes.  An explicit ``parent`` (or
``parent=ROOT`` for a forced root) overrides this.

A span's own ``end`` is the only record of whether it is open: the
tracer keeps one list of spans per trace and nothing beside it, so the
implicit parent is the newest span of the trace that has not ended.  A
span holds the tracer's clock, not the tracer.

There is no inert twin.  The two recorders in :mod:`repro.obs.recorder`
are the only callers of :meth:`Tracer.start`, and an unobserved stack
builds neither of them, so the tracer in
:meth:`Instrumentation.disabled() <repro.obs.Instrumentation.disabled>`
is a real one that simply stays empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

#: Sentinel for ``Tracer.start(parent=ROOT)``: force a root span even when
#: other spans of the trace are open.
ROOT = object()


@dataclass
class Span:
    """One timed operation within a query's lifecycle.

    ``status`` is ``"open"`` until :meth:`finish` stamps a terminal
    status: ``"ok"``, ``"error"``, ``"retry"`` (a failed attempt that was
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
    _clock: Callable[[], float] | None = field(default=None, repr=False, compare=False)

    @property
    def duration_s(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def set(self, **attributes: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def finish(self, status: str = "ok", **attributes: object) -> None:
        """Close the span at the current clock time.

        Idempotent: finishing an already-closed span is a no-op, so
        safety-net closers (:meth:`Tracer.end_open`) compose with explicit
        closes regardless of call order.
        """
        if self.end is not None or self._clock is None:
            return
        self.attributes.update(attributes)
        self.status = status
        self.end = self._clock()


class Tracer:
    """Records span trees keyed by trace id, on a caller-supplied clock.

    Args:
        clock: Zero-argument callable returning the current time — pass
            the simulator's (``lambda: sim.now``) so span timestamps are
            virtual and reproducible.  Defaults to a frozen clock at 0.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._next_id = 0
        self._spans: dict[str, list[Span]] = {}

    # -- recording -----------------------------------------------------------

    def start(
        self,
        trace_id: str,
        name: str,
        parent: Span | object | None = None,
        **attributes: object,
    ) -> Span:
        """Open a span; it becomes the innermost open span of its trace."""
        if parent is ROOT:
            parent_id = None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:  # the newest span of the trace that has not ended
            spans = reversed(self._spans.get(trace_id, ()))
            parent_id = next((s.span_id for s in spans if s.end is None), None)
        span = Span(
            span_id=self._next_id,
            trace_id=trace_id,
            name=name,
            start=self._clock(),
            parent_id=parent_id,
            attributes=dict(attributes),
            _clock=self._clock,
        )
        self._next_id += 1
        self._spans.setdefault(trace_id, []).append(span)
        return span

    def end_open(self, trace_id: str, status: str = "ok", **attributes: object) -> int:
        """Close every still-open span of ``trace_id``, newest first.

        The safety net for error, retry-exhaustion, and cancellation
        paths: no code path may leak an open span past query completion.
        Returns the number of spans it closed.
        """
        closing = self.open_spans(trace_id)
        for span in reversed(closing):
            span.finish(status, **attributes)
        return len(closing)

    # -- inspection ----------------------------------------------------------

    def trace_ids(self) -> list[str]:
        return sorted(self._spans)

    def spans(self, trace_id: str) -> list[Span]:
        """All spans of the trace, in creation order."""
        return list(self._spans.get(trace_id, []))

    def open_spans(self, trace_id: str) -> list[Span]:
        """The spans of the trace that have not ended, in creation order."""
        return [span for span in self._spans.get(trace_id, ()) if span.end is None]

    def last(self, trace_id: str, name: str) -> Span | None:
        """The most recently started span called ``name`` in the trace,
        open or closed — how a writer finds the attempt it is closing (or
        parenting under) without carrying the span through a callback."""
        for span in reversed(self._spans.get(trace_id, ())):
            if span.name == name:
                return span
        return None

    # -- export --------------------------------------------------------------

    def timeline(self, trace_id: str) -> dict:
        """The span forest of ``trace_id`` as nested plain dicts."""
        nodes: dict[int, dict] = {}
        roots: list[dict] = []
        for span in self._spans.get(trace_id, []):
            node = {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "status": span.status,
                "attributes": dict(span.attributes),
                "children": [],
            }
            nodes[span.span_id] = node
            if span.parent_id is not None and span.parent_id in nodes:
                nodes[span.parent_id]["children"].append(node)
            else:
                roots.append(node)
        return {"trace_id": trace_id, "spans": roots}

    def export_json(self, trace_id: str) -> str:
        """Deterministic JSON timeline — byte-identical across same-seed
        runs (virtual-clock timestamps, counter span ids, sorted keys)."""
        return json.dumps(self.timeline(trace_id), sort_keys=True, indent=2)

    def export_all_json(self) -> str:
        """Every trace, sorted by trace id, as one JSON document."""
        return json.dumps(
            [self.timeline(trace_id) for trace_id in self.trace_ids()],
            sort_keys=True,
            indent=2,
        )
