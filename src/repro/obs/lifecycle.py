"""The lifecycle log: one entry per query transition, and its replay.

The two recorders in :mod:`repro.obs.recorder` are the log's only
writers.  Each transition of a query — submitted, rejected, downgraded,
queued, dispatched, cancelled while held, ruled on by the guard,
completed; planned, VM-queued, attempt started, measured, execution
window opened, CF fan-out invoked, attempt ended, failed — appends
**one** entry, linked to the query's previous entry, that carries every
attribute the tracer, the journal and the activity registry render from
it, and the first span id the transition opens (span ids are the log's
counter, one per span, in write order).

An entry reads back as a tuple ``(trace_id, previous, kind, span, at,
*fields)``: the query (trace) it belongs to, the position of the
query's previous entry (-1 for none), the transition, the first span id
it opens, the clock when it was written, and the transition's fields
(see :class:`Replay`).  Fields are atoms — ``str``, ``int``, ``float``,
``None`` — or tuples of atoms; a kind that stores a mapping puts it
last, flat: its keys, then its values (:func:`mapping_at` reads it
back).  One field is not: a completion the journal's capture policy
selected, and whose capture the cap kept, holds the execution's
operator profile and its bill, which the journal renders its evidence
from when read.

The log keeps its entries flat too: one list of cells, each entry its
field count, trace id, link and fields in a row.  Writing an entry
allocates no object the cycle collector has to count or traverse, and
nothing reads the log while it is written — at fleet scale, where most
submissions are held, that is most of what watching them would
otherwise cost.

:class:`Replay` is the one reading of the entries.  Fed them in log
order, it renders each transition as the facts the three sinks fold —
span starts, instants, finishes, attribute sets and end-of-trace
closes (:class:`~repro.obs.tracer.SpanFold`), journal rows and capture
decisions (:class:`~repro.obs.journal.QueryJournal`) — in the order the
transition implies, and keeps each submitted query's live
:class:`ActivityEntry` and the accuracy record of each billed one (the
activity registry's state, which the journal's ``projection`` rows read
too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from repro.obs.profiler import AXES

#: Sentinel parent of a query's root span, and a journal row's span id
#: for "the query's root span".
ROOT = object()

#: Transitions, with their fields after ``span, at``.
SUBMIT = "submit"  # level, requested, tenant, deadline_s, price_per_tb, price_fraction, fingerprint, sql, admission, prior, admission attributes
REJECT = "reject"  # level, fingerprint, error, reason
DOWNGRADE = "downgrade"  # level, fingerprint, reason, requested, held, submitted_at, deadline_s, prior
QUEUE = "queue"  # level, fingerprint, reason, share, finish_tag
DISPATCH = "dispatch"  # level, fingerprint, submitted_at, batch
CANCEL = "cancel"  # level, fingerprint, submitted_at
GUARD = "guard"  # level, fingerprint, rule, action, applied, reason
COMPLETE = "complete"  # see Replay._complete
PLAN = "plan"  # error, batch
VM_QUEUE = "vm_queue"
EXECUTE = "execute"  # venue, attributes
MEASURE = "measure"  # bytes, rows, GETs, hits, misses, skipped, merged rows, batches, cf_workers
WINDOW = "window"  # venue, duration_s, operators, final nanodollars, final axes, merge_at
CF_INVOKE = "cf_invoke"  # attempt, workers
ATTEMPT_END = "attempt_end"  # status, bytes_scanned, provider_cost, failure attributes
FAIL = "fail"  # status, error

#: Spans each transition opens (none if absent): ``submit`` the ``query``
#: root and its ``submit`` instant, the others one each.  Two kinds
#: decide by a field, in :meth:`LifecycleLog.append`: a measure opens a
#: ``merge`` span too when it has merged rows, a completion a ``bill``
#: span only when it was billed.
OPENS = {
    SUBMIT: 2, QUEUE: 1, DISPATCH: 1, PLAN: 1, VM_QUEUE: 1, EXECUTE: 1,
    CF_INVOKE: 1,
}
#: Positions, among a transition's fields, of the two fields that decide
#: its span count: a measure's merged rows, a completion's bill.
MERGED_FIELD = 6
BILLED_FIELD = 16

#: Facts a replay renders, with their fields after the trace id.
START = "span.start"  # span_id, name, at, parent, attributes
INSTANT = "span.instant"  # span_id, name, at, parent, attributes, status
FINISH = "span.finish"  # span (id or newest of a name), at, status, attributes
SET = "span.set"  # span, attributes
END_OPEN = "span.end_open"  # at, status, attributes
ROW = "journal.row"  # at, event, span_id, fingerprint, level, while_open, attributes
CAPTURE = "journal.capture"  # at, reasons, kept, evidence, fingerprint, level, slack_s, billed_dollars

#: Lifecycle states, in rough progression order.  ``merging`` is the CF
#: tail of ``executing`` (the VM-side merge of function results) and is
#: derived from the window position rather than stored.
LIFECYCLE_STATES = (
    "queued",
    "admitted",
    "dispatched",
    "executing",
    "merging",
    "billed",
    "cancelled",
    "rejected",
    "failed",
)

TERMINAL_STATES = frozenset({"billed", "cancelled", "rejected", "failed"})


def mapping_at(entry: tuple, offset: int) -> dict:
    """The mapping ``entry`` stores flat from ``offset`` on: its keys,
    then its values."""
    tail = entry[offset:]
    half = len(tail) // 2
    return dict(zip(tail[:half], tail[half:]))


class LifecycleLog:
    """Append-only entries, stored flat in one list of cells, each linked
    to its query's previous entry."""

    __slots__ = ("_cells", "_clock", "heads", "next_span")

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        """``clock`` stamps each entry (the simulator's, for virtual and
        reproducible timestamps); a frozen clock at 0 by default."""
        self._cells: list = []
        self._clock = clock if clock is not None else (lambda: 0.0)
        #: Trace id -> position of its newest entry: the chain heads, and
        #: the index of every id the log holds.
        self.heads: dict[str, int] = {}
        #: The id the next span opened will get.
        self.next_span = 0

    def append(self, trace_id: str, kind: str, *fields: object) -> int:
        """Append one transition of ``trace_id``; returns the id of the
        first span it opens (the next span id if none, see :data:`OPENS`)."""
        cells = self._cells
        heads = self.heads
        span = self.next_span
        if kind == MEASURE:
            opens = 1 if fields[MERGED_FIELD] is None else 2
        elif kind == COMPLETE:
            opens = 0 if fields[BILLED_FIELD] is None else 1
        else:
            opens = OPENS.get(kind, 0)
        self.next_span = span + opens
        previous = heads.get(trace_id, -1)
        heads[trace_id] = len(cells)
        cells.extend((len(fields) + 3, trace_id, previous, kind, span, self._clock(), *fields))
        return span

    @property
    def end(self) -> int:
        """The position the next entry will be written at."""
        return len(self._cells)

    def since(self, position: int) -> Iterator[tuple]:
        """The entries from ``position`` (an earlier :attr:`end`) on, in
        append order, up to the end as it stands when iteration starts."""
        cells = self._cells
        end = len(cells)
        while position < end:
            size = cells[position]
            yield tuple(cells[position + 1 : position + 3 + size])
            position += 3 + size

    def __iter__(self) -> Iterator[tuple]:
        """Every entry, in append order."""
        return self.since(0)

    def of(self, trace_id: str) -> list[tuple]:
        """The entries of ``trace_id``, oldest first."""
        cells = self._cells
        chain: list[tuple] = []
        position = self.heads.get(trace_id, -1)
        while position >= 0:
            entry = tuple(cells[position + 1 : position + 3 + cells[position]])
            chain.append(entry)
            position = entry[1]
        chain.reverse()
        return chain


class Prior(NamedTuple):
    """What past calls of one fingerprint × level × tenant say about the
    next: the mean bill, the mean execution time, and the resource split
    of their summed bills (the weights a prior-only projection is split
    by)."""

    nanodollars: int
    time_s: float
    axes: dict[str, int]


@dataclass(frozen=True)
class ProjectionRecord:
    """One billed query's estimated-vs-actual accuracy record."""

    query_id: str
    tenant: str
    level: str | None
    estimated_nanodollars: int
    actual_nanodollars: int
    #: Where the estimate came from: ``prior`` (statement history, known
    #: at submission) or ``execution`` (first-seen statement; the
    #: exec-start projection from scanned bytes).
    source: str

    @property
    def abs_error_nanodollars(self) -> int:
        return abs(self.estimated_nanodollars - self.actual_nanodollars)

    @property
    def ape(self) -> float:
        """Absolute percentage error (0.0 when the bill was $0)."""
        if self.actual_nanodollars == 0:
            return 0.0 if self.estimated_nanodollars == 0 else 1.0
        return self.abs_error_nanodollars / self.actual_nanodollars

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "tenant": self.tenant,
            "level": self.level,
            "estimated_nanodollars": self.estimated_nanodollars,
            "actual_nanodollars": self.actual_nanodollars,
            "abs_error_nanodollars": self.abs_error_nanodollars,
            "ape": round(self.ape, 9),
            "source": self.source,
        }


@dataclass
class ActivityEntry:
    """The activity registry's record of one query's live state."""

    query_id: str
    tenant: str = "default"
    level: str | None = None
    requested_level: str | None = None
    state: str = "admitted"
    submitted_at: float = 0.0
    deadline_s: float | None = None
    admission: str = "admit"
    venue: str | None = None
    exec_started_at: float | None = None
    exec_duration_s: float | None = None
    #: Window fraction where the CF merge phase begins (CF venue only).
    merge_at: float | None = None
    #: One ``(name, depth, morsels, blocking, emit_at)`` per operator, in
    #: pre-order: ``morsels`` counts a scan's row groups (0 elsewhere),
    #: and ``emit_at`` is the window fraction where a blocking sink flips
    #: from accumulating input to emitting output (its upstream share of
    #: subtree time).
    operators: tuple[tuple[str, int, int, bool, float], ...] = ()
    prior: Prior | None = None
    #: The exec-start-known final bill (scanned bytes × the level rate)
    #: and its resource split, as the execution window logged them.
    final_nanodollars: int | None = None
    final_axes: dict[str, int] | None = None
    #: The pre-completion estimate the accuracy record is judged on.
    estimate_nanodollars: int | None = None
    estimate_source: str | None = None
    actual_nanodollars: int | None = None
    actual_axes: dict[str, int] | None = None
    terminal_at: float | None = None
    detail: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def set_prior(self, prior: tuple | None) -> None:
        """Install the prior for the entry's fingerprint × level × tenant
        (the queued-state projection and the blend's anchor)."""
        self.prior = (
            Prior(prior[0], prior[1], dict(zip(AXES, prior[2])))
            if prior is not None
            else None
        )
        if prior is not None and (
            self.estimate_nanodollars is None or self.estimate_source == "prior"
        ):
            self.estimate_nanodollars = self.prior.nanodollars
            self.estimate_source = "prior"


def _axes(values: tuple | None) -> dict[str, int] | None:
    return dict(zip(AXES, values)) if values is not None else None


class Replay:
    """The log read forward: the facts each entry renders, and the
    activity state the entries fed so far leave.

    :meth:`apply` takes entries in log order (all of them, or one
    query's) and returns each entry's facts; a transition of a query the
    registry does not know, or holds as terminal, changes no activity
    entry.
    """

    def __init__(self) -> None:
        self.entries: dict[str, ActivityEntry] = {}
        self.records: list[ProjectionRecord] = []

    def _live(self, query_id: str) -> ActivityEntry | None:
        entry = self.entries.get(query_id)
        return None if entry is None or entry.terminal else entry

    def _end(self, query_id: str, at: float, state: str, detail: str | None) -> None:
        entry = self._live(query_id)
        if entry is not None:
            entry.terminal_at, entry.state, entry.detail = at, state, detail

    def apply(self, entry: tuple) -> list[tuple]:
        """The facts of one entry, in the order its transition implies."""
        q, _, kind, span, at = entry[:5]
        if kind == SUBMIT:
            (level, requested, tenant, deadline, per_tb, fraction, fp, sql,
             admission, prior) = entry[5:15]
            verdict = mapping_at(entry, 15)
            activity = self.entries[q] = ActivityEntry(
                query_id=q,
                tenant=tenant,
                level=level,
                requested_level=requested,
                submitted_at=at,
                deadline_s=deadline,
                admission=admission,
            )
            activity.set_prior(prior)
            # price_fraction + deadline_s let traces join SLO records by
            # query id without re-deriving level semantics.
            root = {
                "level": level, "sql": sql, "tenant": tenant,
                "price_fraction": fraction, "deadline_s": deadline,
                "fingerprint": fp, **verdict,
            }
            row = {
                "tenant": tenant, "price_per_tb": per_tb,
                "deadline_s": deadline, **verdict,
            }
            return [
                (START, q, span, "query", at, ROOT, root),
                (INSTANT, q, span + 1, "submit", at, None,
                 {"level": level, "price_per_tb": per_tb}, "ok"),
                (ROW, q, at, "submit", ROOT, fp, level, True, row),
            ]
        if kind == REJECT:
            level, fp, error, reason = entry[5:]
            self._end(q, at, "rejected", reason)
            # The trace is closed by now: fingerprint, but no span id.
            return [
                (END_OPEN, q, at, "error", {"error": error}),
                (ROW, q, at, "reject", None, fp, level, False,
                 {"error": error, "reason": reason}),
            ]
        if kind == DOWNGRADE:
            level, fp, reason, requested, held, submitted_at, deadline, prior = entry[5:]
            row = (ROW, q, at, "downgrade", ROOT, fp, level, True,
                   {"reason": reason, "requested_level": requested})
            if not held:
                return [row]
            activity = self._live(q)
            if activity is not None:
                activity.level, activity.detail = level, reason
                activity.deadline_s = deadline
                activity.set_prior(prior)
            return [
                (FINISH, q, "queue", at, "downgraded", {"held_s": at - submitted_at}),
                row,
            ]
        if kind == QUEUE:
            level, fp, reason, share, finish_tag = entry[5:]
            activity = self._live(q)
            if activity is not None:
                activity.state = "queued"
            return [
                (START, q, span, "queue", at, None,
                 {"level": level, "reason": reason, "share": share,
                  "finish_tag": finish_tag}),
                (ROW, q, at, "queue", ROOT, fp, level, True,
                 {"reason": reason, "share": share, "finish_tag": finish_tag}),
            ]
        if kind == DISPATCH:
            level, fp, submitted_at, batch = entry[5:]
            activity = self._live(q)
            if activity is not None:
                activity.state = "dispatched"
            held = at - submitted_at
            marks = {"batch": True} if batch else {}
            return [
                (FINISH, q, "queue", at, "ok", {"held_s": held}),
                (INSTANT, q, span, "dispatch", at, None,
                 {"level": level, **marks}, "ok"),
                (ROW, q, at, "dispatch", ROOT, fp, level, True,
                 {"held_s": round(held, 9), **marks}),
            ]
        if kind == CANCEL:
            level, fp, submitted_at = entry[5:]
            self._end(q, at, "cancelled", "cancelled_held")
            return [
                (FINISH, q, "queue", at, "cancelled", {"held_s": at - submitted_at}),
                (ROW, q, at, "cancel", ROOT, fp, level, True, {"stage": "held"}),
                (END_OPEN, q, at, "cancelled", {"error": "cancelled by user"}),
            ]
        if kind == GUARD:
            level, fp, rule, action, applied, reason = entry[5:]
            return [
                (ROW, q, at, "guard", ROOT, fp, level, True,
                 {"rule": rule, "action": action, "applied": applied,
                  "reason": reason}),
            ]
        if kind == COMPLETE:
            return self._complete(entry)
        if kind == PLAN:
            error, batch = entry[5:]
            attrs: dict = {} if error is None else {"error": error}
            if batch:
                attrs["batch"] = True
            return [
                (INSTANT, q, span, "plan", at, None, attrs,
                 "ok" if error is None else "error"),
            ]
        if kind == VM_QUEUE:
            return [(START, q, span, "vm_queue", at, None, {})]
        if kind == EXECUTE:
            return [
                (FINISH, q, "vm_queue", at, "ok", {}),
                (START, q, span, "execute", at, None,
                 {"venue": entry[5], **mapping_at(entry, 6)}),
            ]
        if kind == MEASURE:
            scanned, rows, gets, hits, misses, skipped, merged, batches, workers = entry[5:]
            facts = [
                (INSTANT, q, span, "scan", at, "execute",
                 {"bytes_scanned": scanned, "rows_scanned": rows,
                  "get_requests": gets, "cache_hits": hits,
                  "cache_misses": misses, "row_groups_skipped": skipped},
                 "ok"),
            ]
            if merged is not None:
                facts.append(
                    (INSTANT, q, span + 1, "merge", at, "execute",
                     {"rows_produced": merged, "batches": batches}, "ok")
                )
                facts.append((SET, q, "execute", {"cf_workers": workers}))
            return facts
        if kind == WINDOW:
            venue, duration_s, operators, nanodollars, axes, merge_at = entry[5:]
            activity = self._live(q)
            if activity is not None:
                activity.venue = venue
                activity.exec_started_at = at
                activity.exec_duration_s = duration_s
                activity.merge_at = merge_at
                activity.operators = operators
                activity.final_nanodollars = nanodollars
                activity.final_axes = _axes(axes)
                if activity.estimate_nanodollars is None:
                    # First-seen statement: the exec-start projection is
                    # the best pre-completion estimate the system ever had.
                    activity.estimate_nanodollars = nanodollars
                    activity.estimate_source = "execution"
                activity.state = "executing"
            return []
        if kind == CF_INVOKE:
            attempt, workers = entry[5:]
            facts = []
            if attempt:
                facts.append(
                    (FINISH, q, "cf_invoke", at, "retry",
                     {"reason": "cf invocation failed"})
                )
            facts.append(
                (START, q, span, "cf_invoke", at, "execute",
                 {"workers": workers, "attempt": attempt})
            )
            return facts
        if kind == ATTEMPT_END:
            status, scanned, provider_cost = entry[5:8]
            failure = mapping_at(entry, 8)
            attrs = dict(failure)
            if scanned is not None:
                attrs["bytes_scanned"] = scanned
            if provider_cost is not None:
                attrs["provider_cost"] = provider_cost
            return [
                (FINISH, q, "cf_invoke", at, status, failure),
                (FINISH, q, "execute", at, status, attrs),
            ]
        # FAIL: no failure path may leak an open span — whatever the query
        # still has open closes here, with the failure status and message.
        status, error = entry[5:]
        return [(END_OPEN, q, at, status, {"error": error})]

    def _complete(self, entry: tuple) -> list[tuple]:
        """A query the server finished: billed (its ``bill`` span, the
        trace's close, the accuracy record and its ``projection`` row), or
        failed or cancelled; then its ``finish``/``error`` row and, if the
        capture policy selected it, its capture."""
        (q, _, _, span, at, level, fp, root, error, cancelled, venue,
         time_s, pending, deadline, slack, price, per_tb, fraction,
         scanned, produced, plan_shape, nanodollars, axes, reasons,
         kept, evidence) = entry
        facts: list[tuple] = []
        if nanodollars is not None:
            facts.append(
                (INSTANT, q, span, "bill", at, root,
                 {"level": level, "price": price, "price_per_tb": per_tb,
                  "price_fraction": fraction, "bytes_scanned": scanned,
                  "deadline_s": deadline, "slack_s": slack},
                 "ok")
            )
            facts.append((END_OPEN, q, at, "ok", {}))
            record = self._billed(q, at, nanodollars, axes)
            if record is not None:
                # Estimated-vs-actual; the trace is closed by now, so the
                # row carries the fingerprint but no span id.
                facts.append(
                    (ROW, q, at, "projection", None, fp, level, False,
                     {"estimated_nanodollars": record.estimated_nanodollars,
                      "actual_nanodollars": record.actual_nanodollars,
                      "ape": round(record.ape, 9), "source": record.source})
                )
        else:
            # The coordinator's failure path already closed the trace
            # with an error/cancelled status; this is only the safety net.
            facts.append((END_OPEN, q, at, "error", {"error": error or ""}))
            if cancelled:
                self._end(q, at, "cancelled", "cancelled")
            else:
                self._end(q, at, "failed", error)
        attrs = {
            "venue": venue,
            "execution_s": round(time_s or 0.0, 9),
            "pending_s": round(pending, 9) if pending is not None else None,
            "slack_s": round(slack, 9) if slack is not None else None,
            "billed_dollars": round(price, 12),
            "bytes_scanned": scanned,
            "rows_produced": produced,
            "plan_shape": plan_shape,
        }
        if error is not None:
            attrs["error"] = error
        facts.append(
            (ROW, q, at, "error" if error is not None else "finish", ROOT, fp,
             level, False, attrs)
        )
        if reasons is not None:
            facts.append(
                (CAPTURE, q, at, reasons, kept, evidence, fp, level,
                 round(slack, 9) if slack is not None else None,
                 round(price, 12))
            )
        return facts

    def _billed(
        self, query_id: str, at: float, nanodollars: int, axes: tuple | None
    ) -> ProjectionRecord | None:
        """Terminal ``billed``; the accuracy record it appends, if the
        query had an estimate."""
        entry = self._live(query_id)
        if entry is None:
            return None
        entry.terminal_at = at
        entry.actual_nanodollars = nanodollars
        entry.actual_axes = _axes(axes)
        entry.state = "billed"
        if entry.estimate_nanodollars is None:
            return None
        record = ProjectionRecord(
            query_id=query_id,
            tenant=entry.tenant,
            level=entry.level,
            estimated_nanodollars=entry.estimate_nanodollars,
            actual_nanodollars=nanodollars,
            source=entry.estimate_source or "execution",
        )
        self.records.append(record)
        return record
