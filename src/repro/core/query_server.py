"""The Query Server: per-level admission, queueing, and billing (§3.2).

The server fronts the Coordinator with a REST-like submit/status/result
API (Pixels-Rover is its client).  Admission per level:

* IMMEDIATE — forwarded to the Coordinator at once with CF enabled.
* RELAXED — forwarded with CF disabled while the VM cluster is below the
  high watermark; otherwise held in the relaxed queue.  When the grace
  period expires the query is forwarded anyway (it then waits in the VM
  queue rather than the server queue, still never invoking CF).
* BEST_EFFORT — forwarded only while the cluster is below the *low*
  watermark, i.e. exactly when the cluster would otherwise scale in; no
  deadline.

Since the scheduler refactor this class is a thin façade over the
layered :mod:`repro.core.scheduler` subsystem: an
:class:`~repro.core.scheduler.AdmissionController` judges every
submission (quotas, rate limits, pressure/budget downgrades — inert by
default), and a :class:`~repro.core.scheduler.LevelScheduler` holds the
queued work in per-tenant weighted-fair queues instead of the old FIFO
lists.  The façade keeps what only it can own: billing, observability
threading, and the watermark/grace *eligibility* rules; the scheduler
decides *who goes next* among the eligible.

Held queries are re-evaluated on a periodic scheduler tick and whenever a
query completes.  On completion the server computes the user's bill:
TB-scanned × the level's rate ($5 / $1 / $0.5 per TB).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NoSuchQueryError, PixelsError, QueryRejectedError
from repro.core.scheduler import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    HELD_LEVELS,
    LevelScheduler,
)
from repro.core.service_levels import QueryStatus, ServiceLevel
from repro.obs import ROOT, Span
from repro.obs.activity import GuardDecision, GuardPolicy, ProjectionGuard
from repro.obs.fingerprint import Fingerprint, fingerprint
from repro.obs.metrics import (
    ADMISSION_DOWNGRADES_METRIC,
    ADMISSION_REJECTIONS_METRIC,
    GUARD_DECISIONS_METRIC,
    SCHEDULER_QUEUE_DEPTH_METRIC,
)
from repro.obs.profiler import NANOS_PER_DOLLAR
from repro.obs.slo import SLACK_BUCKETS
from repro.sim import Simulator, WeakCallback
from repro.turbo.coordinator import Coordinator, QueryExecution
from repro.turbo.config import TurboConfig


@dataclass
class ServerQuery:
    """The server's record of one submission — what Pixels-Rover renders
    as a status-and-result block (§4.3)."""

    query_id: str
    sql: str
    #: Effective service level — what the query runs and bills at.  The
    #: admission layer may have downgraded it from ``requested_level``.
    level: ServiceLevel
    submitted_at: float
    result_limit: int | None = None
    grace_deadline: float | None = None
    dispatched_at: float | None = None
    execution: QueryExecution | None = field(default=None, repr=False)
    price: float = 0.0
    #: The exact integer bill (``round(price × 1e9)``); the metering
    #: ledger's per-axis events sum to this, and the server's aggregate
    #: billing sums these so no float drift can accumulate.
    price_nanodollars: int = 0
    tenant: str = "default"
    cancelled: bool = False
    on_finish: Callable[["ServerQuery"], None] | None = field(
        default=None, repr=False
    )
    #: The level the client asked for (== ``level`` unless downgraded).
    requested_level: ServiceLevel | None = None
    #: The admission layer's verdict on this submission.
    admission: AdmissionDecision | None = field(default=None, repr=False)
    #: Virtual finish tag the weighted-fair queue assigned while held.
    finish_tag: float | None = None

    @property
    def downgraded(self) -> bool:
        return (
            self.requested_level is not None
            and self.requested_level is not self.level
        )

    @property
    def status(self) -> QueryStatus:
        if self.cancelled and self.execution is None:
            # Cancelled while still held in the server queue.
            return QueryStatus.FAILED
        if self.execution is None:
            return QueryStatus.PENDING
        if self.execution.error is not None:
            return QueryStatus.FAILED
        if self.execution.finished_at is not None:
            return QueryStatus.FINISHED
        if self.execution.started_at is not None:
            return QueryStatus.RUNNING
        return QueryStatus.PENDING

    @property
    def pending_time_s(self) -> float | None:
        """Time from server submission to actual execution start."""
        if self.execution is None or self.execution.started_at is None:
            return None
        return self.execution.started_at - self.submitted_at

    @property
    def execution_time_s(self) -> float | None:
        if self.execution is None:
            return None
        return self.execution.execution_time_s

    @property
    def error(self) -> str | None:
        if self.execution is not None:
            return self.execution.error
        return "cancelled by user" if self.cancelled else None

    def result_rows(self) -> list[tuple]:
        """Finished query's rows, truncated to the submission's limit."""
        if self.execution is None or self.execution.result is None:
            return []
        rows = self.execution.result.rows()
        if self.result_limit is not None:
            rows = rows[: self.result_limit]
        return rows

    def result_columns(self) -> list[str]:
        if self.execution is None or self.execution.result is None:
            return []
        return self.execution.result.column_names


class QueryServer:
    """Admission control + billing in front of the Coordinator."""

    def __init__(
        self,
        sim: Simulator,
        coordinator: Coordinator,
        config: TurboConfig,
        max_queue_length: int = 10_000,
        batch_best_effort: bool = False,
        batch_size: int = 16,
        admission: AdmissionPolicy | None = None,
        shares: dict[str, float] | None = None,
        default_share: float = 1.0,
        guard: GuardPolicy | None = None,
    ) -> None:
        """``batch_best_effort`` enables the paper's §5 batch-optimization
        opportunity: held best-of-effort queries are dispatched together
        as one shared-scan batch instead of one by one.

        ``admission`` configures the front-end admission layer (quotas,
        rate limits, downgrades); the default policy admits everything.
        ``shares``/``default_share`` set per-tenant weighted-fair shares
        for the hold queues; with one tenant (or equal shares and equal
        load) dispatch order is exactly the old FIFO order.
        ``guard`` arms the projection guard: on every scheduler tick the
        live activity registry's bill/deadline projections are held
        against tenant budgets and service-level deadlines, with the
        policy's (opt-in) alert/downgrade/cancel actions audit-logged on
        :attr:`guard` (requires observability; inert otherwise).
        """
        self._sim = sim
        self._coordinator = coordinator
        self._config = config
        self._max_queue_length = max_queue_length
        self._batch_best_effort = batch_best_effort
        self._batch_size = batch_size
        self._queries: dict[str, ServerQuery] = {}
        self._scheduler = LevelScheduler(shares, default_share)
        self.obs = coordinator.obs
        self._admission = AdmissionController(
            admission, clock=lambda: sim.now, spend=self.obs.spend
        )
        #: Per-tenant held + executing query count (the quota basis).
        self._tenant_live: dict[str, int] = {}
        #: Min-heap of (grace_deadline, seq, record) for held relaxed
        #: queries; dispatched/cancelled entries are skipped lazily.
        self._grace_heap: list[tuple[float, int, ServerQuery]] = []
        self._grace_seq = 0
        self._query_counter = 0
        self._root_spans: dict[str, Span] = {}
        self._queue_spans: dict[str, Span] = {}
        # Statement fingerprints: one cache keyed by SQL text (normalizing
        # is per-shape work, not per-call work) plus the per-query mapping
        # journal/statement records are labelled with.
        self._fingerprint_cache: dict[str, Fingerprint] = {}
        self._fingerprints: dict[str, Fingerprint] = {}
        registry = self.obs.metrics
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
        self.obs.activity.bind(pricer=self._projection_price)
        #: The armed :class:`ProjectionGuard` (None unless a policy was
        #: passed and observability is on); its ``audit_log`` is the
        #: guard's decision record, and ``alert_sink`` may be attached
        #: post-construction to route alerts into an alert engine.
        self.guard: ProjectionGuard | None = None
        if guard is not None and self.obs.activity.enabled:
            self.guard = ProjectionGuard(
                guard,
                self.obs.activity,
                self.obs.spend,
                canceller=self.cancel,
                downgrader=self.downgrade_query,
                on_decision=self._on_guard_decision,
            )
        #: (tenant, level) series last reported non-zero — zeroed on the
        #: next collection once the tenant drains, so the gauge never
        #: shows a stale depth.
        self._depth_series: set[tuple[str, str]] = set()
        registry.add_collector(self._collect_queue_depth)
        # Held weakly: the pending tick must not pin a finished replay.
        self._tick_callback = WeakCallback(self._tick)
        sim.schedule(config.scheduler_interval_s, self._tick_callback)

    def _projection_price(self, stats, level_value: str, venue: str):
        """Price a (possibly hypothetical) execution for the activity
        registry's projections: the same ``user_price`` + ``meter`` pair
        :meth:`_completed` bills with, so projection and bill can never
        disagree at the terminal state."""
        level = ServiceLevel.from_string(level_value)
        price = self._coordinator.cost_model.user_price(stats, level)
        reading = self._coordinator.cost_model.meter(
            stats,
            venue,
            price,
            get_price_per_1000=(
                self._coordinator.store.profile.get_price_per_1000
            ),
        )
        return reading.billed_nanodollars, reading.axes

    def _on_guard_decision(self, decision: GuardDecision) -> None:
        self._m_guard.inc(rule=decision.rule, action=decision.action)
        record = self._queries.get(decision.query_id)
        if record is not None:
            self._journal_event(
                record,
                "guard",
                rule=decision.rule,
                action=decision.action,
                applied=decision.applied,
                reason=decision.reason,
            )

    def _collect_queue_depth(self) -> None:
        self._m_queue_depth.set(
            self._scheduler.depth(ServiceLevel.RELAXED), level="relaxed"
        )
        self._m_queue_depth.set(
            self._scheduler.depth(ServiceLevel.BEST_EFFORT),
            level="best_effort",
        )
        live: set[tuple[str, str]] = set()
        for level in HELD_LEVELS:
            for tenant, depth in self._scheduler.queue(level).depths().items():
                self._m_tenant_queue_depth.set(
                    depth, tenant=tenant, level=level.value
                )
                live.add((tenant, level.value))
        for tenant, level_name in self._depth_series - live:
            self._m_tenant_queue_depth.set(0, tenant=tenant, level=level_name)
        self._depth_series = live

    # -- lookups ---------------------------------------------------------------

    def query(self, query_id: str) -> ServerQuery:
        try:
            return self._queries[query_id]
        except KeyError:
            raise NoSuchQueryError(f"no query {query_id!r}") from None

    @property
    def queries(self) -> list[ServerQuery]:
        return list(self._queries.values())

    @property
    def queued_relaxed(self) -> int:
        """Derived view over the scheduler's relaxed hold queue.  The
        old FIFO list attributes are gone: queue state lives only in the
        :class:`LevelScheduler`, so no caller can observe (or mutate) a
        half-drained queue mid-tick."""
        return self._scheduler.depth(ServiceLevel.RELAXED)

    @property
    def queued_best_effort(self) -> int:
        """Derived view over the scheduler's best-effort hold queue."""
        return self._scheduler.depth(ServiceLevel.BEST_EFFORT)

    def held_queries(self, level: ServiceLevel) -> list[ServerQuery]:
        """Held queries at ``level`` in dispatch order — a snapshot, not
        the live queue."""
        return self._scheduler.records(level)

    def scheduler_snapshot(self) -> dict:
        """JSON-ready scheduler state: per-tenant/per-level queue depths,
        WFQ shares and fairness, admission verdicts, live counts.  The
        dashboard "Scheduler" panel and Rover's ``/scheduler`` endpoint
        render this."""
        snapshot = self._scheduler.snapshot()
        snapshot["admission"] = self._admission.snapshot()
        snapshot["tenant_live"] = {
            tenant: count
            for tenant, count in sorted(self._tenant_live.items())
            if count > 0
        }
        return snapshot

    def price_quote(self, level: ServiceLevel) -> float:
        """$/TB-scan rate shown on the submission form (Figure 3)."""
        return self._coordinator.cost_model.price_per_tb(level)

    def deadline_for(self, level: ServiceLevel) -> float | None:
        """The published pending-time deadline of ``level`` (§3.2):
        immediate starts at once, relaxed starts before the grace period
        expires, best-of-effort carries no deadline.  This is the SLO
        the tracker holds each completed query against."""
        if level is ServiceLevel.IMMEDIATE:
            return 0.0
        if level is ServiceLevel.RELAXED:
            return self._config.grace_period_s
        return None

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        sql: str,
        level: ServiceLevel,
        result_limit: int | None = None,
        query_id: str | None = None,
        on_finish: Callable[[ServerQuery], None] | None = None,
        tenant: str | None = None,
    ) -> ServerQuery:
        """Accept a query at ``level``; returns its server record.

        ``tenant`` tags the submission for spend accounting (span
        attributes, journal, statement store, metering ledger, and the
        per-tenant billed counter); it defaults to ``"default"``.
        The admission layer may downgrade a relaxed submission to
        best_effort under pressure (the record's ``requested_level``
        keeps the original).  Raises :class:`QueryRejectedError` if the
        admission layer refuses the submission or the relevant hold
        queue is full (back-pressure rather than unbounded growth).
        """
        if query_id is None:
            self._query_counter += 1
            query_id = f"sq-{self._query_counter}"
        tenant_name = tenant or "default"
        decision = self._admission.decide(
            tenant_name,
            level,
            tenant_live=self._tenant_live.get(tenant_name, 0),
            relaxed_depth=self._scheduler.depth(ServiceLevel.RELAXED),
        )
        record = ServerQuery(
            query_id=query_id,
            sql=sql,
            level=decision.level,
            submitted_at=self._sim.now,
            result_limit=result_limit,
            on_finish=on_finish,
            tenant=tenant_name,
            requested_level=level,
            admission=decision,
        )
        self._queries[query_id] = record
        self._m_submitted.inc(level=level.value)
        fp: Fingerprint | None = None
        if self.obs.statements.enabled or self.obs.journal.enabled:
            fp = self._fingerprint_cache.get(sql)
            if fp is None:
                fp = fingerprint(sql)
                self._fingerprint_cache[sql] = fp
            self._fingerprints[query_id] = fp
        if self.obs.activity.enabled:
            self.obs.activity.begin(
                query_id,
                tenant=record.tenant,
                level=record.level.value,
                requested_level=level.value,
                fingerprint=fp.id if fp is not None else None,
                deadline_s=self.deadline_for(record.level),
                admission=decision.action,
            )
        admission_attrs = (
            decision.to_attrs() if decision.action != "admit" else {}
        )
        tracer = self.obs.tracer
        if tracer.enabled:
            # price_fraction + deadline_s let traces join SLO records by
            # query id without re-deriving level semantics.
            self._root_spans[query_id] = tracer.start(
                query_id,
                "query",
                parent=ROOT,
                level=record.level.value,
                sql=sql,
                tenant=record.tenant,
                price_fraction=record.level.price_fraction,
                deadline_s=self.deadline_for(record.level),
                fingerprint=fp.id if fp is not None else None,
                **admission_attrs,
            )
            tracer.start(query_id, "submit", level=record.level.value).finish(
                price_per_tb=self.price_quote(record.level)
            )
        if self.obs.journal.enabled:
            self.obs.journal.event(
                "submit",
                query_id,
                span_id=self._root_span_id(query_id),
                fingerprint=fp.id if fp is not None else None,
                level=record.level.value,
                tenant=record.tenant,
                price_per_tb=self.price_quote(record.level),
                deadline_s=self.deadline_for(record.level),
                **admission_attrs,
            )
        live_counted = False
        try:
            if not decision.admitted:
                raise QueryRejectedError(
                    f"admission refused {level.value} submission "
                    f"({decision.reason})"
                )
            if decision.action == "downgrade":
                self._m_admission_downgraded.inc(reason=decision.reason)
                self._journal_event(
                    record,
                    "downgrade",
                    reason=decision.reason,
                    requested_level=level.value,
                )
            self._live_inc(record.tenant)
            live_counted = True
            if record.level is ServiceLevel.IMMEDIATE:
                self._dispatch(record)
            elif record.level is ServiceLevel.RELAXED:
                record.grace_deadline = (
                    self._sim.now + self._config.grace_period_s
                )
                if self._coordinator.below_high_watermark():
                    self._dispatch(record)
                else:
                    self._enqueue(record)
            else:  # BEST_EFFORT
                if self._coordinator.below_low_watermark():
                    self._dispatch(record)
                else:
                    self._enqueue(record)
        except QueryRejectedError as exc:
            reason = "queue_full" if decision.admitted else decision.reason
            self._m_rejected.inc(level=level.value)
            self._m_admission_rejected.inc(reason=reason)
            if live_counted:
                self._live_dec(record.tenant)
            self._queries.pop(query_id, None)
            self._root_spans.pop(query_id, None)
            tracer.end_open(query_id, "error", error=str(exc))
            self._journal_event(record, "reject", error=str(exc), reason=reason)
            self._fingerprints.pop(query_id, None)
            self.obs.activity.finish_rejected(query_id, reason)
            raise
        if self.guard is not None:
            # An idle cluster dispatches (and opens the execution window)
            # synchronously inside the submit above — faster than the
            # next scheduler tick.  One guard pass here means a doomed
            # projection trips before the query can outrun the ticker.
            self.guard.evaluate(self._sim.now)
        return record

    def _live_inc(self, tenant: str) -> None:
        self._tenant_live[tenant] = self._tenant_live.get(tenant, 0) + 1

    def _live_dec(self, tenant: str) -> None:
        count = self._tenant_live.get(tenant, 0) - 1
        if count > 0:
            self._tenant_live[tenant] = count
        else:
            self._tenant_live.pop(tenant, None)

    def _root_span_id(self, query_id: str) -> int | None:
        span = self._root_spans.get(query_id)
        return span.span_id if span is not None else None

    def _journal_event(
        self, record: ServerQuery, event: str, **attrs: object
    ) -> None:
        if not self.obs.journal.enabled:
            return
        fp = self._fingerprints.get(record.query_id)
        self.obs.journal.event(
            event,
            record.query_id,
            span_id=self._root_span_id(record.query_id),
            fingerprint=fp.id if fp is not None else None,
            level=record.level.value,
            **attrs,
        )

    def _enqueue(self, record: ServerQuery) -> None:
        if self._scheduler.depth(record.level) >= self._max_queue_length:
            self._admission.record_queue_full()
            raise QueryRejectedError(
                f"{record.level.value} queue is full "
                f"({self._max_queue_length} queries)"
            )
        finish_tag = self._scheduler.push(record)
        if record.level is ServiceLevel.RELAXED:
            self._grace_seq += 1
            heapq.heappush(
                self._grace_heap,
                (record.grace_deadline, self._grace_seq, record),
            )
        watermark = "high" if record.level is ServiceLevel.RELAXED else "low"
        share = self._scheduler.share_of(record.tenant)
        if self.obs.tracer.enabled:
            self._queue_spans[record.query_id] = self.obs.tracer.start(
                record.query_id,
                "queue",
                level=record.level.value,
                reason=f"above_{watermark}_watermark",
                share=share,
                finish_tag=round(finish_tag, 9),
            )
        self._journal_event(
            record,
            "queue",
            reason=f"above_{watermark}_watermark",
            share=share,
            finish_tag=round(finish_tag, 9),
        )
        self.obs.activity.mark_queued(record.query_id)

    def _dispatch(self, record: ServerQuery) -> None:
        self._close_queue_span(record)
        if self.obs.tracer.enabled:
            self.obs.tracer.start(
                record.query_id, "dispatch", level=record.level.value
            ).finish()
        self._journal_event(
            record,
            "dispatch",
            held_s=round(self._sim.now - record.submitted_at, 9),
        )
        record.dispatched_at = self._sim.now
        self.obs.activity.mark_dispatched(record.query_id)
        record.execution = self._coordinator.submit(
            sql=record.sql,
            cf_enabled=record.level.cf_enabled,
            query_id=record.query_id,
            on_complete=lambda execution: self._completed(record, execution),
            submit_context=self._pending_context(record),
        )

    def _pending_context(self, record: ServerQuery) -> dict[str, object]:
        """The scheduling story EXPLAIN ANALYZE prints in its ``pending:``
        header — how long the server held the query and what the
        admission layer ruled."""
        context: dict[str, object] = {
            "queue_wait_s": round(self._sim.now - record.submitted_at, 9),
            "admission": (
                record.admission.action
                if record.admission is not None
                else "admit"
            ),
        }
        if (
            record.admission is not None
            and record.admission.action != "admit"
        ):
            context["admission_reason"] = record.admission.reason
        return context

    def cancel(self, query_id: str) -> bool:
        """Cancel a query at any pre-terminal stage.

        Works whether the query is still held in a server queue, waiting
        in the VM cluster's queue, or already running.  Returns False if
        it had already finished or failed.
        """
        record = self.query(query_id)
        if record.status.is_terminal:
            return False
        if record.execution is None:
            record.cancelled = True
            self._close_queue_span(record, status="cancelled")
            self._journal_event(record, "cancel", stage="held")
            self.obs.ledger.void(
                query_id,
                tenant=record.tenant,
                level=record.level.value,
                venue="none",
                span_id=self._root_span_id(query_id),
                reason="cancelled_held",
            )
            self._fingerprints.pop(query_id, None)
            self._root_spans.pop(query_id, None)
            self.obs.tracer.end_open(
                query_id, "cancelled", error="cancelled by user"
            )
            self._scheduler.remove(query_id)
            self._live_dec(record.tenant)
            self.obs.activity.finish_cancelled(query_id, "cancelled_held")
            if record.on_finish is not None:
                record.on_finish(record)
            return True
        record.cancelled = True
        return self._coordinator.cancel(query_id)

    def downgrade_query(self, query_id: str, reason: str) -> bool:
        """Demote a held relaxed query to best-effort (the projection
        guard's gentler remedy).  Only a query still waiting in the
        server's relaxed queue is eligible — a dispatched query already
        runs and bills at its admitted rate.  Returns False if the query
        was ineligible."""
        record = self._queries.get(query_id)
        if (
            record is None
            or record.level is not ServiceLevel.RELAXED
            or record.cancelled
            or record.dispatched_at is not None
            or record.execution is not None
        ):
            return False
        self._scheduler.remove(query_id)
        self._close_queue_span(record, status="downgraded")
        record.level = ServiceLevel.BEST_EFFORT
        record.grace_deadline = None
        self._m_admission_downgraded.inc(reason=reason)
        self._journal_event(
            record,
            "downgrade",
            reason=reason,
            requested_level=(
                record.requested_level.value
                if record.requested_level is not None
                else None
            ),
        )
        self.obs.activity.downgrade(
            query_id, ServiceLevel.BEST_EFFORT.value, reason
        )
        if (
            self._coordinator.below_low_watermark()
            or self._scheduler.depth(ServiceLevel.BEST_EFFORT)
            >= self._max_queue_length
        ):
            # Dispatch now — immediately when capacity allows, and as the
            # back-pressure escape hatch when the best-effort queue is
            # full (a downgrade must never morph into a rejection).
            self._dispatch(record)
        else:
            self._enqueue(record)
        return True

    def _close_queue_span(
        self, record: ServerQuery, status: str = "ok"
    ) -> None:
        span = self._queue_spans.pop(record.query_id, None)
        if span is not None:
            span.finish(status, held_s=self._sim.now - record.submitted_at)

    # -- scheduling -----------------------------------------------------------------

    def _tick(self) -> None:
        self._sim.schedule(
            self._config.scheduler_interval_s, self._tick_callback
        )
        self._drain()
        if self.guard is not None:
            self.guard.evaluate(self._sim.now)

    def _drain(self) -> None:
        """Re-evaluate held queries against the current load status.

        Grace-expired relaxed queries are forced out first regardless of
        WFQ order (the server guaranteed only the grace-period bound;
        they then queue in the VM cluster).  Then the weighted-fair
        queues drain in finish-tag order while the watermarks allow:
        relaxed below the high watermark, best-effort below the low one.
        """
        now = self._sim.now
        while self._grace_heap and self._grace_heap[0][0] <= now:
            _, _, record = heapq.heappop(self._grace_heap)
            if (
                record.dispatched_at is not None
                or record.cancelled
                or record.level is not ServiceLevel.RELAXED
            ):
                # Already dispatched, cancelled, or guard-downgraded out
                # of the relaxed class (its grace promise lapsed with it).
                continue
            if self._scheduler.claim(record):
                self._dispatch(record)
        while (
            self._scheduler.depth(ServiceLevel.RELAXED) > 0
            and self._coordinator.below_high_watermark()
        ):
            self._dispatch(self._scheduler.pop(ServiceLevel.RELAXED))
        if (
            self._batch_best_effort
            and self._scheduler.depth(ServiceLevel.BEST_EFFORT) >= 2
            and self._coordinator.below_low_watermark()
        ):
            self._dispatch_batch()
            return
        while (
            self._scheduler.depth(ServiceLevel.BEST_EFFORT) > 0
            and self._coordinator.below_low_watermark()
        ):
            self._dispatch(self._scheduler.pop(ServiceLevel.BEST_EFFORT))

    def _dispatch_batch(self) -> None:
        """Send held best-of-effort queries out as one shared-scan batch
        (taken in WFQ dispatch order)."""
        group: list[ServerQuery] = []
        while len(group) < self._batch_size:
            record = self._scheduler.pop(ServiceLevel.BEST_EFFORT)
            if record is None:
                break
            group.append(record)
        for record in group:
            self._close_queue_span(record)
            if self.obs.tracer.enabled:
                self.obs.tracer.start(
                    record.query_id,
                    "dispatch",
                    level=record.level.value,
                    batch=True,
                ).finish()
            self._journal_event(
                record,
                "dispatch",
                batch=True,
                held_s=round(self._sim.now - record.submitted_at, 9),
            )
            self.obs.activity.mark_dispatched(record.query_id)
        executions = self._coordinator.submit_shared_batch(
            [record.sql for record in group],
            [record.query_id for record in group],
        )
        now = self._sim.now
        for record, execution in zip(group, executions):
            record.dispatched_at = now
            record.execution = execution
            if execution.finished_at is not None:  # failed during planning
                self._completed(record, execution)
            else:
                execution.on_complete = (
                    lambda exec_, rec=record: self._completed(rec, exec_)
                )

    def _completed(self, record: ServerQuery, execution: QueryExecution) -> None:
        span_id = self._root_span_id(record.query_id)
        self._live_dec(record.tenant)
        deadline = self.deadline_for(record.level)
        pending = record.pending_time_s
        slack = (
            deadline - pending
            if deadline is not None and pending is not None
            else None
        )
        reading = None
        if execution.result is not None:
            stats = execution.result.stats
            venue = (
                execution.venue.value
                if execution.venue is not None
                else "none"
            )
            record.price = self._coordinator.cost_model.user_price(
                stats, record.level
            )
            if self.obs.ledger.enabled or self.obs.statements.enabled:
                # One meter reading feeds the ledger, the statement
                # store, and price_nanodollars, so the three surfaces
                # agree to the nanodollar by construction.
                reading = self._coordinator.cost_model.meter(
                    stats,
                    venue,
                    record.price,
                    get_price_per_1000=(
                        self._coordinator.store.profile.get_price_per_1000
                    ),
                )
                record.price_nanodollars = reading.billed_nanodollars
            else:
                record.price_nanodollars = round(
                    record.price * NANOS_PER_DOLLAR
                )
            if self.obs.ledger.enabled and reading is not None:
                self.obs.ledger.charge_query(
                    record.query_id,
                    axes=reading.axes,
                    billed_nanodollars=reading.billed_nanodollars,
                    tenant=record.tenant,
                    level=record.level.value,
                    venue=venue,
                    span_id=span_id,
                    bytes_scanned=stats.bytes_scanned,
                    data_inflation=self._coordinator.config.data_inflation,
                    price_per_tb=self.price_quote(record.level),
                )
            self._m_billed.inc(record.price, level=record.level.value)
            self._m_tenant_billed.inc(record.price, tenant=record.tenant)
            if slack is not None:
                self._m_slack.observe(slack, level=record.level.value)
            if pending is not None:
                self.obs.slo.record(
                    query_id=record.query_id,
                    level=record.level.value,
                    submitted_at=record.submitted_at,
                    finished_at=self._sim.now,
                    deadline_s=deadline,
                    actual_s=pending,
                    billed=record.price,
                )
            root = self._root_spans.pop(record.query_id, None)
            if root is not None:
                self.obs.tracer.start(
                    record.query_id,
                    "bill",
                    parent=root,
                    level=record.level.value,
                    price=record.price,
                    price_per_tb=self.price_quote(record.level),
                    price_fraction=record.level.price_fraction,
                    bytes_scanned=execution.result.stats.bytes_scanned,
                    deadline_s=deadline,
                    slack_s=slack,
                ).finish()
            self.obs.tracer.end_open(record.query_id, "ok")
            if self.obs.activity.enabled:
                projection = self.obs.activity.finish_billed(
                    record.query_id,
                    record.price_nanodollars,
                    axes=reading.axes if reading is not None else None,
                )
                if projection is not None:
                    # Estimated-vs-actual goes to the journal before
                    # _observe_statement pops the fingerprint mapping.
                    self._journal_event(
                        record,
                        "projection",
                        estimated_nanodollars=(
                            projection.estimated_nanodollars
                        ),
                        actual_nanodollars=projection.actual_nanodollars,
                        ape=round(projection.ape, 9),
                        source=projection.source,
                    )
        else:
            # The coordinator's failure path already closed the trace with
            # an error/cancelled status; this is only the safety net.
            self._root_spans.pop(record.query_id, None)
            self.obs.tracer.end_open(
                record.query_id, "error", error=execution.error or ""
            )
            if record.cancelled or execution.error == "cancelled by user":
                self.obs.ledger.void(
                    record.query_id,
                    tenant=record.tenant,
                    level=record.level.value,
                    venue=(
                        execution.venue.value
                        if execution.venue is not None
                        else "none"
                    ),
                    span_id=span_id,
                    reason="cancelled",
                )
                self.obs.activity.finish_cancelled(record.query_id)
            else:
                self.obs.activity.finish_failed(
                    record.query_id, execution.error
                )
        self._observe_statement(
            record,
            execution,
            span_id,
            slack,
            attribution=reading.attribution if reading is not None else None,
        )
        if record.pending_time_s is not None:
            self._m_pending.observe(
                record.pending_time_s, level=record.level.value
            )
        if record.on_finish is not None:
            record.on_finish(record)
        # A finished query frees capacity: give held queries a chance now
        # rather than waiting for the next tick.
        self._drain()

    def _observe_statement(
        self,
        record: ServerQuery,
        execution: QueryExecution,
        span_id: int | None,
        slack: float | None,
        attribution=None,
    ) -> None:
        """Fold one completion into the statement store and the journal
        (including the tail-based capture decision)."""
        obs = self.obs
        if not (obs.statements.enabled or obs.journal.enabled):
            return
        fp = self._fingerprints.pop(record.query_id, None)
        if fp is None:
            return
        error = execution.error is not None
        time_s = execution.execution_time_s or 0.0
        pending = record.pending_time_s
        stats = (
            execution.result.stats if execution.result is not None else None
        )
        venue = (
            execution.venue.value if execution.venue is not None else "none"
        )
        if obs.statements.enabled:
            if attribution is None and stats is not None:
                attribution = self._coordinator.cost_model.attribution(
                    stats,
                    venue,
                    record.price,
                    get_price_per_1000=(
                        self._coordinator.store.profile.get_price_per_1000
                    ),
                )
            obs.statements.record(
                fp,
                record.level.value,
                time_s=time_s,
                pending_s=pending or 0.0,
                billed=record.price,
                attribution=attribution,
                stats=stats,
                plan_shape=execution.plan_shape,
                error=error,
                tenant=record.tenant,
            )
        if not obs.journal.enabled:
            return
        journal = obs.journal
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
            level=record.level.value,
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
                profile = self.query_profile(record.query_id)
            except PixelsError:
                profile = None
            journal.capture(
                record.query_id,
                reasons,
                profile,
                span_id=span_id,
                fingerprint=fp.id,
                level=record.level.value,
                slack_s=round(slack, 9) if slack is not None else None,
                billed_dollars=round(record.price, 12),
            )

    # -- profiling ----------------------------------------------------------------------

    def query_profile(self, query_id: str):
        """The finished query's deterministic cost/time attribution profile.

        Fuses the tracer's span tree (when tracing is on), the executor's
        operator profile, and the billed price split by resource into one
        :class:`~repro.obs.profiler.QueryProfile` — the input for folded
        stacks and the time/$ flame graphs.  The server owns this endpoint
        because it is the one component that knows the bill.
        """
        from repro.engine.executor import QueryStats
        from repro.obs.profiler import build_query_profile

        record = self.query(query_id)
        execution = record.execution
        if execution is None or execution.finished_at is None:
            raise PixelsError(f"query {query_id!r} has not finished")
        timeline = (
            self.obs.tracer.timeline(query_id)
            if self.obs.tracer.enabled
            else None
        )
        venue = (
            execution.venue.value if execution.venue is not None else "none"
        )
        stats = (
            execution.result.stats
            if execution.result is not None
            else QueryStats()
        )
        attribution = self._coordinator.cost_model.attribution(
            stats,
            venue,
            record.price,
            get_price_per_1000=(
                self._coordinator.store.profile.get_price_per_1000
            ),
        )
        return build_query_profile(
            query_id, timeline, execution.profile, attribution
        )

    # -- aggregate statistics ----------------------------------------------------------

    def total_billed_nanodollars(self) -> int:
        """Sum of user-facing charges across finished queries, in exact
        integer nanodollars — the authoritative aggregate (no float
        accumulation drift, reconciled against the metering ledger)."""
        return sum(
            query.price_nanodollars for query in self._queries.values()
        )

    def total_billed(self) -> float:
        """Dollar view of :meth:`total_billed_nanodollars`."""
        return self.total_billed_nanodollars() / NANOS_PER_DOLLAR

    def status_counts(self) -> dict[QueryStatus, int]:
        counts = {status: 0 for status in QueryStatus}
        for query in self._queries.values():
            counts[query.status] += 1
        return counts
