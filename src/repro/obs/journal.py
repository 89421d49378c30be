"""The query journal: a trace-correlated JSONL event log with tail-based
slow-query capture.

Every journal record carries the query id, its trace/root-span ids, the
statement fingerprint, and the service level, so a journal line joins
the tracer's timeline, the SLO records, and the statement store without
re-deriving anything.  The :class:`CapturePolicy` decides — at
completion time, when the bill and slack are known — whether the query's
full evidence (the profiler's attribution tree plus its time flame
graph) is attached to the journal: deadline violations, errors, bills
over a $ threshold, and queries landing in the slowest-N ring all
qualify, so when an SLO page fires the diagnosis is already collected.

Nothing writes a row.  The journal's rows are the ``journal.row`` and
``journal.capture`` facts :class:`~repro.obs.lifecycle.Replay` renders
from the transitions the recorders append to the
:class:`~repro.obs.lifecycle.LifecycleLog`, built into record dicts when
read.  A row rendered ``while_open`` is labelled with its span id and
fingerprint only if that span is still open at the row's place in the
log, and a capture becomes a ``capture`` row — its evidence rendered
from the query's spans as they stand there — or, past the cap, a
``capture_dropped`` one.  So :meth:`QueryJournal.export_jsonl` is
byte-identical across runs and invariant to ``REPRO_WORKERS``.  Only
what the recorder consults is kept as it goes: the capture policy's
slowest-N ring and the count of captures kept and dropped, so a
completion past the cap stores no evidence.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

from repro.obs.lifecycle import CAPTURE, ROOT, ROW, LifecycleLog, Replay
from repro.obs.profdiff import profile_to_dict
from repro.obs.profiler import build_query_profile
from repro.obs.tracer import SpanFold, Tracer


@dataclass(frozen=True)
class CapturePolicy:
    """When to attach full profile evidence to a journal record."""

    #: Capture queries whose deadline slack went negative.
    capture_violations: bool = True
    #: Capture queries that failed.
    capture_errors: bool = True
    #: Capture queries billed at or above this many dollars (None: off).
    dollar_threshold: float | None = None
    #: Capture queries among the N slowest completed so far (0: off).
    slowest_n: int = 8
    #: Capture queries that ran at a lower level than requested —
    #: admission-pressure and projection-guard downgrades otherwise leave
    #: only span attributes, no profile evidence (off by default).
    capture_downgrades: bool = False
    #: Hard cap on stored captures (each holds a tree + an SVG); beyond
    #: it the journal records the drop instead of the evidence.
    max_captures: int = 64


class QueryJournal:
    """Structured event log + capture ring for one workload run."""

    def __init__(
        self,
        policy: CapturePolicy | None = None,
        log: LifecycleLog | None = None,
    ) -> None:
        """``log`` is the lifecycle log to read (an observed bundle shares
        one with its tracer); defaults to a private one."""
        self.policy = policy if policy is not None else CapturePolicy()
        self._log = log if log is not None else LifecycleLog()
        self._slow_ring: list[float] = []  # N slowest durations seen
        self._kept_captures = 0
        #: Captures the policy selected past ``max_captures``.
        self.dropped_captures = 0

    # -- capture policy -----------------------------------------------------

    def _lands_in_slow_ring(self, time_s: float) -> bool:
        """Track the N slowest completions; True when this one joins."""
        ring = self._slow_ring
        n = self.policy.slowest_n
        qualifies = len(ring) < n or time_s > ring[0]
        bisect.insort(ring, time_s)
        if len(ring) > n:
            ring.pop(0)
        return qualifies

    def capture_reasons(
        self,
        *,
        time_s: float | None,
        billed: float | None,
        slack_s: float | None,
        error: bool,
        downgraded: bool = False,
    ) -> list[str]:
        """The policy clauses this completion triggers (empty: no capture).

        Must be called exactly once per completion — it also feeds the
        slowest-N ring."""
        policy = self.policy
        reasons: list[str] = []
        if error and policy.capture_errors:
            reasons.append("error")
        if downgraded and policy.capture_downgrades:
            reasons.append("downgrade")
        if (
            slack_s is not None
            and slack_s < 0
            and policy.capture_violations
        ):
            reasons.append("deadline_violation")
        if (
            policy.dollar_threshold is not None
            and billed is not None
            and billed >= policy.dollar_threshold
        ):
            reasons.append("dollar_threshold")
        if (
            policy.slowest_n > 0
            and time_s is not None
            and self._lands_in_slow_ring(time_s)
        ):
            reasons.append(f"slowest_{policy.slowest_n}")
        return reasons

    def keep_capture(self) -> bool:
        """Count one capture the policy selected: True while under the
        cap, else False — the capture is dropped and leaves a breadcrumb
        row instead of its evidence."""
        if self._kept_captures < self.policy.max_captures:
            self._kept_captures += 1
            return True
        self.dropped_captures += 1
        return False

    # -- accessors ----------------------------------------------------------

    @staticmethod
    def _record(fact: tuple, spans: SpanFold) -> dict:
        """The record dict of one row; ``spans`` is the tracer's state at
        the row's place in the log, which resolves its labels."""
        _, query_id, ts, event, span_id, fingerprint, level, while_open, attrs = fact
        if span_id is ROOT:
            span_id = spans.roots.get(query_id)
        if while_open:
            span = spans.by_id.get(span_id)
            if span is None or span.trace_id != query_id or span.end is not None:
                span_id = fingerprint = None
        record: dict = {
            "ts": round(ts, 9),
            "event": event,
            "query_id": query_id,
            "trace_id": query_id,
            "span_id": span_id,
            "fingerprint": fingerprint,
            "level": level,
        }
        for name, value in sorted(attrs.items()):
            record[name] = list(value) if type(value) is tuple else value
        return record

    def records(self) -> list[dict]:
        """Every row, in log order."""
        spans, replay = SpanFold(), Replay()
        records: list[dict] = []
        for entry in self._log:
            for fact in replay.apply(entry):
                kind = fact[0]
                if kind == ROW:
                    records.append(self._record(fact, spans))
                elif kind != CAPTURE:
                    spans.apply(fact)
                elif fact[4]:
                    records.append(self._record(self._evidence(fact, spans), spans))
                else:
                    records.append(self._record(self._dropped(fact), spans))
        return records

    @staticmethod
    def _dropped(fact: tuple) -> tuple:
        """The breadcrumb a capture past the cap leaves instead."""
        _, query_id, at, reasons, _, _, fingerprint, level, _, _ = fact
        return (
            ROW, query_id, at, "capture_dropped", ROOT, fingerprint, level,
            False, {"reasons": reasons},
        )

    @staticmethod
    def _evidence(fact: tuple, spans: SpanFold) -> tuple:
        """A ``capture`` row: the query's profile — its spans as they
        stand at this place in the log, fused with its operator profile
        and bill — and the time flame graph of it, when it has one."""
        _, query_id, at, reasons, _, evidence, fingerprint, level, slack_s, billed = fact
        attrs = {"slack_s": slack_s, "billed_dollars": billed, "reasons": reasons}
        if evidence is not None:
            operators, bill = evidence
            timeline = Tracer.render(query_id, spans.spans.get(query_id, []))
            profile = build_query_profile(query_id, timeline, operators, bill)
            attrs["profile"] = profile_to_dict(profile.root)
            attrs["flamegraph_svg"] = profile.flamegraph_time_svg()
            attrs["billed_nanodollars"] = profile.billed_nanodollars
        return (
            ROW, query_id, at, "capture", ROOT, fingerprint, level, False, attrs
        )

    def captures(self) -> list[dict]:
        return [
            record
            for record in self.records()
            if record["event"] == "capture"
        ]

    # -- exports ------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One sorted-key JSON object per line, in append order (which is
        virtual-clock order) — byte-stable across same-seed runs."""
        records = self.records()
        if not records:
            return ""
        return (
            "\n".join(json.dumps(record, sort_keys=True) for record in records)
            + "\n"
        )
