"""The query server's one window onto observability.

A query's life is a handful of transitions — submitted, downgraded,
rejected, queued, dispatched, cancelled while held, completed, judged by
the projection guard — and each of them feeds several sinks at once: a
span, a journal line, a ledger event, an activity state, a counter.
:class:`QueryRecorder` has one method per transition and is the *only*
writer of the six lifecycle sinks (SLO tracker, statement store, journal,
ledger, spend accountant via the ledger, activity registry), of the
per-query ``query`` / ``submit`` / ``queue`` / ``dispatch`` / ``bill``
spans, and of the server's instruments.  The server holds one, or
``None`` when unobserved, so each transition costs it a single guarded
call and it knows no sink by name.

**Call order is the format.**  Span ids, journal ``seq`` and ledger
``seq`` are counters, and the sinks read each other (journal and ledger
rows carry the tracer's root span id, the activity registry reads the
statement store's priors, the spend accountant listens to the ledger), so
the order in which a method touches the sinks is part of every export.
Reordering two calls inside a method changes bytes on disk.

The recorder derives nothing the bill depends on: ``record.price`` and
``record.price_nanodollars`` are set by the server before
:meth:`QueryRecorder.completed` runs; the cost model's meter reading is
taken here only for the per-resource split the ledger, the statement
store and the activity registry report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

# ``repro.core.query_server`` imports this module after these two, so the
# upward imports are already loaded by the time they run.
from repro.core.scheduler import HELD_LEVELS, LevelScheduler
from repro.core.service_levels import ServiceLevel
from repro.errors import PixelsError
from repro.obs.fingerprint import Fingerprint, fingerprint
from repro.obs.metrics import (
    ADMISSION_DOWNGRADES_METRIC,
    ADMISSION_REJECTIONS_METRIC,
    GUARD_DECISIONS_METRIC,
    SCHEDULER_QUEUE_DEPTH_METRIC,
)
from repro.obs.slo import SLACK_BUCKETS
from repro.obs.tracer import ROOT, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import ServerQuery
    from repro.obs import Instrumentation
    from repro.obs.activity import GuardDecision
    from repro.obs.profiler import QueryProfile
    from repro.turbo.coordinator import Coordinator, QueryExecution


@dataclass(slots=True)
class _OpenQuery:
    """What the recorder keeps for a query between submission and its
    terminal transition: the statement fingerprint its journal and
    statement rows are labelled with, the root ``query`` span, and the
    ``queue`` span while the query is held."""

    fingerprint: Fingerprint
    root: Span
    queue: Span | None = None


class QueryRecorder:
    """Writes every sink a query-server transition feeds, in one place."""

    def __init__(
        self,
        obs: "Instrumentation",
        coordinator: "Coordinator",
        scheduler: LevelScheduler,
        *,
        clock: Callable[[], float],
        deadline_for: Callable[[ServiceLevel], float | None],
        profile_of: Callable[[str], "QueryProfile"],
    ) -> None:
        """``clock`` is the simulator's; ``deadline_for`` and
        ``profile_of`` are the server's own ``deadline_for`` and
        ``query_profile`` (the server, not the recorder, knows the grace
        period and the bill)."""
        self.obs = obs
        self._coordinator = coordinator
        self._scheduler = scheduler
        self._clock = clock
        self._deadline_for = deadline_for
        self._profile_of = profile_of
        self._open: dict[str, _OpenQuery] = {}
        # Normalizing a statement is per-shape work, not per-call work.
        self._fingerprint_cache: dict[str, Fingerprint] = {}
        registry = obs.metrics
        self._m_submitted = registry.counter(
            "pixels_queries_submitted_total",
            "Queries accepted by the server, by service level",
        )
        self._m_rejected = registry.counter(
            "pixels_queries_rejected_total",
            "Queries refused by hold-queue back-pressure",
        )
        self._m_admission_rejected = registry.counter(
            ADMISSION_REJECTIONS_METRIC,
            "Submissions refused by the admission layer, by reason",
        )
        self._m_admission_downgraded = registry.counter(
            ADMISSION_DOWNGRADES_METRIC,
            "Relaxed submissions downgraded to best_effort, by reason",
        )
        self._m_billed = registry.counter(
            "pixels_billed_dollars_total",
            "User-facing charges ($), by service level",
        )
        self._m_tenant_billed = registry.counter(
            "pixels_tenant_billed_dollars_total",
            "User-facing charges ($), by tenant "
            "(soft-budget alert rules select on this)",
        )
        self._m_pending = registry.histogram(
            "pixels_query_pending_seconds",
            "Submission-to-execution-start delay",
        )
        self._m_queue_depth = registry.gauge(
            "pixels_server_queue_depth",
            "Queries held in the server's per-level queues",
        )
        self._m_tenant_queue_depth = registry.gauge(
            SCHEDULER_QUEUE_DEPTH_METRIC,
            "Held queries per tenant and service level "
            "(label sets capped by the cardinality guard)",
        )
        self._m_slack = registry.histogram(
            "pixels_query_deadline_slack_seconds",
            "Deadline minus pending time; negative buckets are violations",
            buckets=SLACK_BUCKETS,
        )
        self._m_guard = registry.counter(
            GUARD_DECISIONS_METRIC,
            "Projection-guard decisions, by rule and action",
        )
        # The activity registry projects bills with the same pricing the
        # server itself uses at completion, so a projection's terminal
        # value equals the billed price exactly.
        obs.activity.bind(pricer=self._projection_price)
        #: (tenant, level) series last reported non-zero — zeroed on the
        #: next collection once the tenant drains, so the gauge never
        #: shows a stale depth.
        self._depth_series: set[tuple[str, str]] = set()
        registry.add_collector(self._collect_queue_depth)

    # -- wiring ---------------------------------------------------------------

    def _price_per_tb(self, level: ServiceLevel) -> float:
        return self._coordinator.cost_model.price_per_tb(level)

    def _meter(self, stats, venue: str, price: float):
        return self._coordinator.cost_model.meter(
            stats,
            venue,
            price,
            get_price_per_1000=(
                self._coordinator.store.profile.get_price_per_1000
            ),
        )

    def _projection_price(self, stats, level_value: str, venue: str):
        """Price a (possibly hypothetical) execution for the activity
        registry's projections: the ``user_price`` the server bills with,
        rounded the way the server rounds it and split by the meter the
        ledger is charged from, so projection and bill can never disagree
        at the terminal state."""
        price = self._coordinator.cost_model.user_price(
            stats, ServiceLevel(level_value)
        )
        reading = self._meter(stats, venue, price)
        return reading.billed_nanodollars, reading.axes

    def _collect_queue_depth(self) -> None:
        live: set[tuple[str, str]] = set()
        for level in HELD_LEVELS:
            self._m_queue_depth.set(
                self._scheduler.depth(level), level=level.value
            )
            for tenant, depth in self._scheduler.queue(level).depths().items():
                self._m_tenant_queue_depth.set(
                    depth, tenant=tenant, level=level.value
                )
                live.add((tenant, level.value))
        for tenant, level_name in self._depth_series - live:
            self._m_tenant_queue_depth.set(0, tenant=tenant, level=level_name)
        self._depth_series = live

    def _journal(self, record: "ServerQuery", event: str, **attrs: object) -> None:
        """One journal row, labelled with the query's root span and
        fingerprint while it is open (a guard ruling can arrive after the
        terminal transition it caused; that row carries neither)."""
        state = self._open.get(record.query_id)
        self.obs.journal.event(
            event,
            record.query_id,
            span_id=state.root.span_id if state is not None else None,
            fingerprint=state.fingerprint.id if state is not None else None,
            level=record.level.value,
            **attrs,
        )

    def _close_queue_span(
        self, record: "ServerQuery", status: str = "ok"
    ) -> None:
        state = self._open.get(record.query_id)
        if state is not None and state.queue is not None:
            span, state.queue = state.queue, None
            span.finish(status, held_s=self._clock() - record.submitted_at)

    # -- transitions ----------------------------------------------------------

    def submitted(self, record: "ServerQuery") -> None:
        """The server accepted a submission for judgement (it may still be
        rejected): counter → fingerprint → activity → root ``query`` span
        and ``submit`` span → journal."""
        query_id, sql = record.query_id, record.sql
        decision = record.admission
        level_value = record.level.value
        self._m_submitted.inc(level=record.requested_level.value)
        fp = self._fingerprint_cache.get(sql)
        if fp is None:
            fp = self._fingerprint_cache[sql] = fingerprint(sql)
        deadline = self._deadline_for(record.level)
        self.obs.activity.begin(
            query_id,
            tenant=record.tenant,
            level=level_value,
            requested_level=record.requested_level.value,
            fingerprint=fp.id,
            deadline_s=deadline,
            admission=decision.action,
        )
        admission_attrs = (
            decision.to_attrs() if decision.action != "admit" else {}
        )
        tracer = self.obs.tracer
        price_per_tb = self._price_per_tb(record.level)
        # price_fraction + deadline_s let traces join SLO records by
        # query id without re-deriving level semantics.
        root = tracer.start(
            query_id,
            "query",
            parent=ROOT,
            level=level_value,
            sql=sql,
            tenant=record.tenant,
            price_fraction=record.level.price_fraction,
            deadline_s=deadline,
            fingerprint=fp.id,
            **admission_attrs,
        )
        self._open[query_id] = _OpenQuery(fp, root)
        tracer.start(query_id, "submit", level=level_value).finish(
            price_per_tb=price_per_tb
        )
        self._journal(
            record,
            "submit",
            tenant=record.tenant,
            price_per_tb=price_per_tb,
            deadline_s=deadline,
            **admission_attrs,
        )

    def rejected(self, record: "ServerQuery", reason: str, error: str) -> None:
        """Admission or hold-queue back-pressure refused the submission."""
        self._m_rejected.inc(level=record.requested_level.value)
        self._m_admission_rejected.inc(reason=reason)
        state = self._open.pop(record.query_id)
        self.obs.tracer.end_open(record.query_id, "error", error=error)
        # The trace is closed by now: fingerprint, but no span id.
        self.obs.journal.event(
            "reject",
            record.query_id,
            fingerprint=state.fingerprint.id,
            level=record.level.value,
            error=error,
            reason=reason,
        )
        self.obs.activity.finish_rejected(record.query_id, reason)

    def downgraded(
        self, record: "ServerQuery", reason: str, held: bool = False
    ) -> None:
        """``record.level`` is now best-effort: the admission layer
        downgraded the submission, or (``held``) the projection guard
        demoted a query out of the relaxed hold queue."""
        if held:
            self._close_queue_span(record, status="downgraded")
        self._m_admission_downgraded.inc(reason=reason)
        self._journal(
            record,
            "downgrade",
            reason=reason,
            requested_level=record.requested_level.value,
        )
        if held:
            self.obs.activity.downgrade(
                record.query_id, record.level.value, reason
            )

    def queued(
        self, record: "ServerQuery", reason: str, share: float, finish_tag: float
    ) -> None:
        """The query entered its level's weighted-fair hold queue."""
        attrs = {
            "reason": reason,
            "share": share,
            "finish_tag": round(finish_tag, 9),
        }
        self._open[record.query_id].queue = self.obs.tracer.start(
            record.query_id, "queue", level=record.level.value, **attrs
        )
        self._journal(record, "queue", **attrs)
        self.obs.activity.mark_queued(record.query_id)

    def dispatched(self, record: "ServerQuery", batch: bool = False) -> None:
        """The server is about to hand the query to the coordinator
        (``batch``: as a member of a shared-scan batch)."""
        self._close_queue_span(record)
        attrs: dict[str, object] = {"batch": True} if batch else {}
        self.obs.tracer.start(
            record.query_id, "dispatch", level=record.level.value, **attrs
        ).finish()
        self._journal(
            record,
            "dispatch",
            held_s=round(self._clock() - record.submitted_at, 9),
            **attrs,
        )
        self.obs.activity.mark_dispatched(record.query_id)

    def cancelled_held(self, record: "ServerQuery") -> None:
        """The user (or the guard) cancelled a query still in a hold
        queue; the ledger gets a zero void so the cancel is on record."""
        query_id = record.query_id
        self._close_queue_span(record, status="cancelled")
        self._journal(record, "cancel", stage="held")
        state = self._open.pop(query_id, None)
        self.obs.ledger.void(
            query_id,
            tenant=record.tenant,
            level=record.level.value,
            venue="none",
            span_id=state.root.span_id if state is not None else None,
            reason="cancelled_held",
        )
        self.obs.tracer.end_open(
            query_id, "cancelled", error="cancelled by user"
        )
        self.obs.activity.finish_cancelled(query_id, "cancelled_held")

    def guard_decided(
        self, decision: "GuardDecision", record: "ServerQuery | None"
    ) -> None:
        """The projection guard ruled on ``record`` (None: the query is
        gone from the server, only the counter moves)."""
        self._m_guard.inc(rule=decision.rule, action=decision.action)
        if record is not None:
            self._journal(
                record,
                "guard",
                rule=decision.rule,
                action=decision.action,
                applied=decision.applied,
                reason=decision.reason,
            )

    def completed(
        self, record: "ServerQuery", execution: "QueryExecution"
    ) -> None:
        """The coordinator finished the query — billed, cancelled in
        flight, or failed; the server has already priced it."""
        obs = self.obs
        query_id = record.query_id
        level_value = record.level.value
        state = self._open.pop(query_id)
        span_id = state.root.span_id
        deadline = self._deadline_for(record.level)
        pending = record.pending_time_s
        slack = (
            deadline - pending
            if deadline is not None and pending is not None
            else None
        )
        venue = (
            execution.venue.value if execution.venue is not None else "none"
        )
        attribution = None
        if execution.result is not None:
            stats = execution.result.stats
            price_per_tb = self._price_per_tb(record.level)
            # One meter reading feeds the ledger, the statement store and
            # the activity registry, so the three split the server's
            # integer bill identically.
            reading = self._meter(stats, venue, record.price)
            attribution = reading.attribution
            obs.ledger.charge_query(
                query_id,
                axes=reading.axes,
                billed_nanodollars=record.price_nanodollars,
                tenant=record.tenant,
                level=level_value,
                venue=venue,
                span_id=span_id,
                bytes_scanned=stats.bytes_scanned,
                data_inflation=self._coordinator.config.data_inflation,
                price_per_tb=price_per_tb,
            )
            self._m_billed.inc(record.price, level=level_value)
            self._m_tenant_billed.inc(record.price, tenant=record.tenant)
            if slack is not None:
                self._m_slack.observe(slack, level=level_value)
            if pending is not None:
                obs.slo.record(
                    query_id=query_id,
                    level=level_value,
                    submitted_at=record.submitted_at,
                    finished_at=self._clock(),
                    deadline_s=deadline,
                    actual_s=pending,
                    billed=record.price,
                )
            obs.tracer.start(
                query_id,
                "bill",
                parent=state.root,
                level=level_value,
                price=record.price,
                price_per_tb=price_per_tb,
                price_fraction=record.level.price_fraction,
                bytes_scanned=stats.bytes_scanned,
                deadline_s=deadline,
                slack_s=slack,
            ).finish()
            obs.tracer.end_open(query_id, "ok")
            projection = obs.activity.finish_billed(
                query_id, record.price_nanodollars, axes=reading.axes
            )
            if projection is not None:
                # Estimated-vs-actual; the trace is closed by now, so the
                # row carries the fingerprint but no span id.
                obs.journal.event(
                    "projection",
                    query_id,
                    fingerprint=state.fingerprint.id,
                    level=level_value,
                    estimated_nanodollars=projection.estimated_nanodollars,
                    actual_nanodollars=projection.actual_nanodollars,
                    ape=round(projection.ape, 9),
                    source=projection.source,
                )
        else:
            # The coordinator's failure path already closed the trace with
            # an error/cancelled status; this is only the safety net.
            obs.tracer.end_open(
                query_id, "error", error=execution.error or ""
            )
            if record.cancelled or execution.error == "cancelled by user":
                obs.ledger.void(
                    query_id,
                    tenant=record.tenant,
                    level=level_value,
                    venue=venue,
                    span_id=span_id,
                    reason="cancelled",
                )
                obs.activity.finish_cancelled(query_id)
            else:
                obs.activity.finish_failed(query_id, execution.error)
        self._fold_statement(
            record, execution, state.fingerprint, span_id, slack, venue,
            attribution,
        )
        if pending is not None:
            self._m_pending.observe(pending, level=level_value)

    def _fold_statement(
        self,
        record: "ServerQuery",
        execution: "QueryExecution",
        fp: Fingerprint,
        span_id: int | None,
        slack: float | None,
        venue: str,
        attribution,
    ) -> None:
        """Fold one completion into the statement store and the journal
        (including the tail-based capture decision)."""
        journal = self.obs.journal
        level_value = record.level.value
        error = execution.error is not None
        time_s = execution.execution_time_s or 0.0
        pending = record.pending_time_s
        stats = (
            execution.result.stats if execution.result is not None else None
        )
        self.obs.statements.record(
            fp,
            level_value,
            time_s=time_s,
            pending_s=pending or 0.0,
            billed=record.price,
            attribution=attribution,
            stats=stats,
            plan_shape=execution.plan_shape,
            error=error,
            tenant=record.tenant,
        )
        attrs: dict[str, object] = {
            "venue": venue,
            "execution_s": round(time_s, 9),
            "pending_s": round(pending, 9) if pending is not None else None,
            "slack_s": round(slack, 9) if slack is not None else None,
            "billed_dollars": round(record.price, 12),
            "bytes_scanned": stats.bytes_scanned if stats is not None else 0,
            "rows_produced": (
                stats.rows_produced if stats is not None else 0
            ),
            "plan_shape": execution.plan_shape,
        }
        if error:
            attrs["error"] = execution.error
        journal.event(
            "error" if error else "finish",
            record.query_id,
            span_id=span_id,
            fingerprint=fp.id,
            level=level_value,
            **attrs,
        )
        reasons = journal.capture_reasons(
            time_s=execution.execution_time_s,
            billed=record.price if not error else None,
            slack_s=slack,
            error=error,
            downgraded=record.downgraded,
        )
        if reasons:
            try:
                profile = self._profile_of(record.query_id)
            except PixelsError:
                profile = None
            journal.capture(
                record.query_id,
                reasons,
                profile,
                span_id=span_id,
                fingerprint=fp.id,
                level=level_value,
                slack_s=round(slack, 9) if slack is not None else None,
                billed_dollars=round(record.price, 12),
            )
