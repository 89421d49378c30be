# The eager query journal this package replaced with folds over the lifecycle
# log, kept verbatim as the oracle of tests/test_lifecycle_folds.py.
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

Records are appended in virtual-clock order from deterministic
callbacks, so :meth:`QueryJournal.export_jsonl` is byte-identical across
runs and invariant to ``REPRO_WORKERS``.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.obs.profdiff import profile_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import QueryProfile


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
        clock: Callable[[], float] | None = None,
        policy: CapturePolicy | None = None,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.policy = policy if policy is not None else CapturePolicy()
        self._records: list[dict] = []
        self._captures: list[dict] = []
        self._slow_ring: list[float] = []  # N slowest durations seen
        self._dropped_captures = 0

    # -- events -------------------------------------------------------------

    def event(
        self,
        event: str,
        query_id: str,
        *,
        span_id: int | None = None,
        fingerprint: str | None = None,
        level: str | None = None,
        **attrs: object,
    ) -> dict:
        """Append one journal record and return it (callers may attach
        evidence keys before export)."""
        record: dict = {
            "ts": round(self._clock(), 9),
            "event": event,
            "query_id": query_id,
            "trace_id": query_id,
            "span_id": span_id,
            "fingerprint": fingerprint,
            "level": level,
        }
        for name in sorted(attrs):
            record[name] = attrs[name]
        self._records.append(record)
        return record

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

    def capture(
        self,
        query_id: str,
        reasons: list[str],
        profile: "QueryProfile | None",
        *,
        span_id: int | None = None,
        fingerprint: str | None = None,
        level: str | None = None,
        **attrs: object,
    ) -> dict | None:
        """Attach full evidence for one query as a ``capture`` record."""
        if len(self._captures) >= self.policy.max_captures:
            self._dropped_captures += 1
            self.event(
                "capture_dropped",
                query_id,
                span_id=span_id,
                fingerprint=fingerprint,
                level=level,
                reasons=reasons,
            )
            return None
        record = self.event(
            "capture",
            query_id,
            span_id=span_id,
            fingerprint=fingerprint,
            level=level,
            reasons=reasons,
            **attrs,
        )
        if profile is not None:
            record["profile"] = profile_to_dict(profile.root)
            record["flamegraph_svg"] = profile.flamegraph_time_svg()
            record["billed_nanodollars"] = profile.billed_nanodollars
        self._captures.append(record)
        return record

    # -- accessors ----------------------------------------------------------

    def records(self) -> list[dict]:
        return list(self._records)

    def captures(self) -> list[dict]:
        return list(self._captures)

    @property
    def dropped_captures(self) -> int:
        return self._dropped_captures

    # -- exports ------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One sorted-key JSON object per line, in append order (which is
        virtual-clock order) — byte-stable across same-seed runs."""
        if not self._records:
            return ""
        return (
            "\n".join(
                json.dumps(record, sort_keys=True)
                for record in self._records
            )
            + "\n"
        )
