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
lists.  The façade keeps what only it can own: the bill and the
watermark/grace *eligibility* rules; the scheduler decides *who goes
next* among the eligible.  Everything kept *for* observation — spans,
journal, ledger, activity, instruments — sits behind one
:class:`~repro.obs.recorder.QueryRecorder`, called once per transition
and absent (``None``) when the stack is unobserved.

Held queries are re-evaluated on a periodic scheduler tick and whenever a
query completes.  The user's bill — TB-scanned × the level's rate ($5 /
$1 / $0.5 per TB) — is the coordinator's meter reading of the query's
last execution window, which the server reads off the execution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import NoSuchQueryError, PixelsError, QueryRejectedError
from repro.core.scheduler import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    LevelScheduler,
)
from repro.core.service_levels import QueryStatus, ServiceLevel
from repro.obs.activity import GuardDecision, GuardPolicy, ProjectionGuard
from repro.obs.profiler import NANOS_PER_DOLLAR, QueryProfile, build_query_profile
from repro.obs.recorder import QueryRecorder
from repro.sim import Simulator, WeakCallback
from repro.turbo.coordinator import Coordinator, QueryExecution
from repro.turbo.config import TurboConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fingerprint import Fingerprint
    from repro.turbo.cost import MeterReading


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
    #: The one bill (price, integer nanodollars, resource split): the
    #: execution's ``bill`` itself, read when the query completes,
    #: observed or not.  Every billing surface reads it.
    bill: MeterReading | None = field(default=None, repr=False)
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
    #: The statement's fingerprint, set by the query recorder at
    #: submission (None when unobserved).
    fingerprint: "Fingerprint | None" = field(default=None, repr=False)
    #: The id of the query's root span, set by the query recorder at
    #: submission (None when unobserved).
    root_span: int | None = field(default=None, repr=False)

    @property
    def price(self) -> float:
        return self.bill.price if self.bill is not None else 0.0

    @property
    def price_nanodollars(self) -> int:
        """The exact integer bill; the server's aggregate billing sums
        these, so no float drift can accumulate."""
        return self.bill.billed_nanodollars if self.bill is not None else 0

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
        guard: GuardPolicy | None = None,
        query_ids: Iterator[int] | None = None,
    ) -> None:
        """``batch_best_effort`` enables the paper's §5 batch-optimization
        opportunity: held best-of-effort queries are dispatched together
        as one shared-scan batch instead of one by one.

        ``admission`` configures the front-end admission layer (quotas,
        rate limits, downgrades); the default policy admits everything.
        ``shares`` sets per-tenant weighted-fair shares for the hold
        queues (other tenants get ``DEFAULT_SHARE``); with one tenant (or
        equal shares and equal load) dispatch order is exactly the old FIFO
        order.
        ``guard`` arms the projection guard: on every scheduler tick the
        live activity registry's bill/deadline projections are held
        against tenant budgets and service-level deadlines, with the
        policy's (opt-in) alert/downgrade/cancel actions audit-logged on
        :attr:`guard` (requires an observed coordinator: ``ValueError``
        otherwise).
        ``query_ids`` numbers the ``sq-N`` ids of submissions without
        one; servers that share an observability bundle must share it, so
        their ids cannot collide.  It defaults to a private count from 1.
        """
        if guard is not None and not coordinator.obs.enabled:
            raise ValueError(
                "guard= needs an observed coordinator: the projection guard "
                "judges the activity registry's projections"
            )
        self._sim = sim
        self._coordinator = coordinator
        self._config = config
        self._max_queue_length = max_queue_length
        self._batch_best_effort = batch_best_effort
        self._batch_size = batch_size
        self._queries: dict[str, ServerQuery] = {}
        self._scheduler = LevelScheduler(shares)
        self.obs = coordinator.obs
        observed = self.obs.enabled
        self._admission = AdmissionController(
            admission,
            clock=lambda: sim.now,
            spend=self.obs.spend if observed else None,
        )
        #: Per-tenant held + executing query count (the quota basis).
        self._tenant_live: dict[str, int] = {}
        #: (grace_deadline, record) of held relaxed queries.  Each is
        #: pushed once, at submission, with deadline ``now +
        #: grace_period_s``, so push order is deadline order; dispatched,
        #: cancelled and downgraded entries are skipped lazily.
        self._grace: deque[tuple[float, ServerQuery]] = deque()
        self._query_ids = query_ids if query_ids is not None else count(1)
        #: The one writer of spans, journal, ledger, activity, SLO and
        #: statement records and the server's instruments; None when
        #: unobserved, so an unobserved server runs no sink code at all.
        self._recorder: QueryRecorder | None = None
        #: The armed :class:`ProjectionGuard` (None unless a policy was
        #: passed and observability is on); its ``audit_log`` is the
        #: guard's decision record, and its alerts join the bundle's
        #: alert engine when there is one.
        self.guard: ProjectionGuard | None = None
        if observed:
            self._recorder = QueryRecorder(
                self.obs,
                coordinator,
                self._scheduler,
                clock=lambda: sim.now,
                grace_period_s=config.grace_period_s,
            )
            if guard is not None:
                self.guard = ProjectionGuard(
                    guard,
                    self.obs.activity,
                    self.obs.spend,
                    canceller=self.cancel,
                    downgrader=self.downgrade_query,
                    alert_sink=(
                        self.obs.alerts.events.append
                        if self.obs.alerts is not None
                        else None
                    ),
                    on_decision=self._on_guard_decision,
                )
        # Held weakly: the pending tick must not pin a finished replay.
        self._tick_callback = WeakCallback(self._tick)
        sim.schedule(config.scheduler_interval_s, self._tick_callback)

    def _id_taken(self, query_id: str) -> bool:
        return query_id in self._queries or (
            self._recorder is not None and self._recorder.knows(query_id)
        )

    def _on_guard_decision(self, decision: GuardDecision) -> None:
        self._recorder.guard_decided(
            decision, self._queries.get(decision.query_id)
        )

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
        return level.deadline_s(self._config.grace_period_s)

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
        queue is full (back-pressure rather than unbounded growth), and
        :class:`PixelsError` if an explicit ``query_id`` is already in
        use (a generated ``sq-N`` skips the ids that are).  Observed, an id
        is in use as long as the shared lifecycle log holds an entry for
        it: a server sharing the bundle may own it, a coordinator sharing
        it may have run a query under it directly, or it named a rejected
        submission whose trace remains.
        """
        if query_id is None:
            query_id = f"sq-{next(self._query_ids)}"
            while self._id_taken(query_id):
                query_id = f"sq-{next(self._query_ids)}"
        elif self._id_taken(query_id):
            # Before admission moves a counter or the record is replaced.
            raise PixelsError(f"duplicate query id {query_id!r}")
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
        recorder = self._recorder
        if recorder is not None:
            recorder.submitted(record)
        live_counted = False
        try:
            if not decision.admitted:
                raise QueryRejectedError(
                    f"admission refused {level.value} submission "
                    f"({decision.reason})"
                )
            if decision.action == "downgrade" and recorder is not None:
                recorder.downgraded(record, decision.reason)
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
            if live_counted:
                self._live_dec(record.tenant)
            self._queries.pop(query_id, None)
            if recorder is not None:
                reason = (
                    "queue_full" if decision.admitted else decision.reason
                )
                recorder.rejected(record, reason, str(exc))
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

    def _enqueue(self, record: ServerQuery) -> None:
        if self._scheduler.depth(record.level) >= self._max_queue_length:
            self._admission.record_queue_full()
            raise QueryRejectedError(
                f"{record.level.value} queue is full "
                f"({self._max_queue_length} queries)"
            )
        finish_tag = self._scheduler.push(record)
        if record.level is ServiceLevel.RELAXED:
            self._grace.append((record.grace_deadline, record))
        if self._recorder is not None:
            watermark = (
                "high" if record.level is ServiceLevel.RELAXED else "low"
            )
            self._recorder.queued(
                record,
                f"above_{watermark}_watermark",
                self._scheduler.share_of(record.tenant),
                finish_tag,
            )

    def _dispatch(self, record: ServerQuery) -> None:
        if self._recorder is not None:
            self._recorder.dispatched(record)
        record.dispatched_at = self._sim.now
        record.execution = self._coordinator.submit(
            sql=record.sql,
            cf_enabled=record.level.cf_enabled,
            query_id=record.query_id,
            level=record.level,
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
            self._scheduler.remove(query_id)
            self._live_dec(record.tenant)
            if self._recorder is not None:
                self._recorder.cancelled_held(record)
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
        record.level = ServiceLevel.BEST_EFFORT
        record.grace_deadline = None
        if self._recorder is not None:
            self._recorder.downgraded(record, reason, held=True)
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
        while self._grace and self._grace[0][0] <= now:
            _, record = self._grace.popleft()
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
        if self._recorder is not None:
            for record in group:
                self._recorder.dispatched(record, batch=True)
        executions = self._coordinator.submit_shared_batch(
            [record.sql for record in group],
            [record.query_id for record in group],
            level=ServiceLevel.BEST_EFFORT,
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
        self._live_dec(record.tenant)
        record.bill = execution.bill
        if self._recorder is not None:
            self._recorder.completed(record, execution)
        if record.on_finish is not None:
            record.on_finish(record)
        # A finished query frees capacity: give held queries a chance now
        # rather than waiting for the next tick.
        self._drain()

    # -- profiling ----------------------------------------------------------------------

    def query_profile(self, query_id: str) -> QueryProfile:
        """The finished query's deterministic cost/time attribution profile.

        Fuses the tracer's span tree (when tracing is on), the executor's
        operator profile, and the query's bill split by resource into one
        :class:`~repro.obs.profiler.QueryProfile` — the input for folded
        stacks and the time/$ flame graphs.  The server owns this endpoint
        because it is the one component that keeps the bill.
        """
        record = self.query(query_id)
        execution = record.execution
        if execution is None or execution.finished_at is None:
            raise PixelsError(f"query {query_id!r} has not finished")
        timeline = (
            self.obs.tracer.timeline(query_id) if self.obs.enabled else None
        )
        return build_query_profile(
            query_id, timeline, execution.profile, record.bill
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
