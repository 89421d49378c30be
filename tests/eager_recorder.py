# The query and execution recorders this package replaced with one
# lifecycle-log entry per transition, kept verbatim (bar this header) as
# the oracle of tests/test_recorder_oracle.py, over the eager sinks.
"""The only two writers of observability: one per layer that has a story.

A query's life is a handful of transitions, and each of them feeds
several sinks at once: a span, a journal line, a ledger event, an
activity state, a counter.  Two classes own those writes, one method per
transition, and nothing outside this module starts a span, registers an
instrument (bar the derived series the recorders join) or touches a
lifecycle sink:

* :class:`QueryRecorder` — the query server's transitions: submitted,
  downgraded, rejected, queued, dispatched, cancelled while held,
  completed, judged by the projection guard.  It writes the lifecycle
  sinks (SLO tracker, statement store, journal, ledger — the spend
  accountant is a view over it — and activity registry), the per-query
  ``query`` / ``submit`` / ``queue`` / ``dispatch`` / ``bill`` spans and
  the server's instruments, and its scheduler joins the registry's
  hold-queue depth series.
* :class:`ExecutionRecorder` — the coordinator's transitions: planned,
  VM-queued, attempt started, attempt measured, execution window opened,
  provider charged, CF fan-out invoked and returned, attempt ended,
  finished.  It writes the ``plan`` / ``vm_queue`` / ``execute`` /
  ``scan`` / ``merge`` / ``cf_invoke`` spans, the provider-account ledger
  rows, the activity registry's execution windows and the execution
  instruments, and its coordinator joins the registry's venue and
  storage series (:mod:`repro.obs.derived` sums them at scrape time).

Each owner holds its recorder, or ``None`` when unobserved, so a
transition costs it a single guarded call and it knows no sink by name.
Neither recorder keeps per-query state, and neither reads a sink back to
label what it writes.  The spans, journal rows and activity transitions
are flat entries of one :class:`~repro.obs.lifecycle.LifecycleLog`: a
span a transition closes or parents under is named in the entry (the
trace's newest ``queue`` or ``execute`` span) and found when the log is
folded, a journal row names the query's root span and is labelled with
it at read time if the root was still open where the row sits in the
log, and the fingerprint a submission was named by rides on its
:class:`~repro.core.query_server.ServerQuery` record.

Neither recorder parses SQL or hashes a plan.  The statement fingerprint
and the plan's shape hash are read off the coordinator's prepared
statement (:meth:`Coordinator.statement`), which parses each text once
for planning and naming alike and keeps both values once asked for.

**Call order is the format.**  Span ids and ledger ``seq`` are
counters, the lifecycle log is read in append order, and what one sink
holds is written into another (journal and ledger rows carry the root
span id, a journal row's labels depend on whether that span had closed
by its place in the log, the activity registry's prior is read off the
statement store, its execution window is priced at the level it holds),
so the order in which a method touches the sinks — and the order in
which an owner calls the methods — is part of every export.  Reordering
two calls changes bytes on disk.  No sink reads or calls another: every
such read is in this module, in the method that writes its result.

Neither recorder derives anything the bill depends on: the server takes
the query's one meter reading (:meth:`CostModel.meter
<repro.turbo.cost.CostModel.meter>`: price, integer nanodollars and
per-resource split) and keeps it on ``record.bill`` before
:meth:`QueryRecorder.completed` runs, and the ledger, the statement
store and the activity registry's actual bill all record that reading.
The only reading taken here is the activity registry's projection, when
an execution window opens, at the level the registry holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

# ``repro.core.query_server`` imports this module after these two, so the
# upward imports are already loaded by the time they run.
from repro.core.scheduler import LevelScheduler
from repro.core.service_levels import ServiceLevel
from repro.errors import PixelsError
from repro.obs.derived import HeldQueueSeries, VenueSeries
from repro.obs.metrics import (
    ADMISSION_DOWNGRADES_METRIC,
    ADMISSION_REJECTIONS_METRIC,
    GUARD_DECISIONS_METRIC,
)
from repro.obs.profiler import AXES, NANOS_PER_DOLLAR
from repro.obs.slo import SLACK_BUCKETS
from repro.obs.tracer import ROOT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import ServerQuery
    from repro.engine.executor import QueryResult, QueryStats
    from repro.obs import Instrumentation
    from repro.obs.activity import GuardDecision
    from repro.obs.fingerprint import Fingerprint
    from repro.obs.profiler import QueryProfile
    from repro.turbo.coordinator import (
        Coordinator,
        PreparedStatement,
        QueryExecution,
    )


class QueryRecorder:
    """Writes every sink a query-server transition feeds, in one place."""

    def __init__(
        self,
        obs: "Instrumentation",
        coordinator: "Coordinator",
        scheduler: LevelScheduler,
        *,
        clock: Callable[[], float],
        grace_period_s: float,
    ) -> None:
        """``clock`` is the simulator's; ``grace_period_s`` the server's
        relaxed-level deadline."""
        self.obs = obs
        self._coordinator = coordinator
        self._clock = clock
        self._grace_period_s = grace_period_s
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
        self._m_slack = registry.histogram(
            "pixels_query_deadline_slack_seconds",
            "Deadline minus pending time; negative buckets are violations",
            buckets=SLACK_BUCKETS,
        )
        self._m_guard = registry.counter(
            GUARD_DECISIONS_METRIC,
            "Projection-guard decisions, by rule and action",
        )
        registry.shared(HeldQueueSeries).add(scheduler)

    # -- wiring ---------------------------------------------------------------

    def _prior(
        self, fp: "Fingerprint", level: str, tenant: str
    ) -> tuple[int, float, tuple] | None:
        """The statement store's prior for ``fp`` at ``level`` and
        ``tenant``, as it stands now (None before the statement's first
        call): mean bill, mean time and nanodollars by axis, in ``AXES``
        order."""
        stats = self.obs.statements.entry(fp.id, level, tenant)
        if stats is None or stats.calls == 0:
            return None
        return (
            round(stats.nanodollars / stats.calls),
            stats.mean_time_s,
            tuple(map(stats.axes.__getitem__, AXES)),
        )

    def _journal(
        self, record: "ServerQuery", event: str, level: str, **attrs: object
    ) -> None:
        """One journal row at ``level`` (the query's, by value), labelled
        with the query's root span and fingerprint while the root span
        is open (a guard ruling can arrive after the terminal transition
        it caused; that row carries neither)."""
        self.obs.journal.event(
            event,
            record.query_id,
            span_id=ROOT,
            fingerprint=record.fingerprint.id,
            level=level,
            while_open=True,
            **attrs,
        )

    def _close_queue_span(
        self, record: "ServerQuery", status: str = "ok"
    ) -> None:
        """End the query's newest ``queue`` span (a no-op once it has
        ended, or if the query was never held)."""
        self.obs.tracer.finish(
            record.query_id,
            "queue",
            status,
            held_s=self._clock() - record.submitted_at,
        )

    def knows(self, query_id: str) -> bool:
        """Whether the bundle already records a query ``query_id`` — any
        server or coordinator sharing it may have used the id."""
        return self.obs.activity.knows(query_id)

    # -- transitions ----------------------------------------------------------

    def submitted(self, record: "ServerQuery") -> None:
        """The server accepted a submission for judgement (it may still be
        rejected): counter → fingerprint → root ``query`` span → activity
        → ``submit`` span → journal."""
        query_id, sql, level = record.query_id, record.sql, record.level
        decision = record.admission
        level_value = level.value
        requested_value = record.requested_level.value
        self._m_submitted.inc(level=requested_value)
        fp = record.fingerprint = self._coordinator.statement(sql).fingerprint
        deadline = level.deadline_s(self._grace_period_s)
        admission_attrs = (
            decision.to_attrs() if decision.action != "admit" else {}
        )
        tracer = self.obs.tracer
        price_per_tb = self._coordinator.cost_model.price_per_tb(level)
        # price_fraction + deadline_s let traces join SLO records by
        # query id without re-deriving level semantics.
        tracer.start(
            query_id,
            "query",
            parent=ROOT,
            level=level_value,
            sql=sql,
            tenant=record.tenant,
            price_fraction=level.price_fraction,
            deadline_s=deadline,
            fingerprint=fp.id,
            **admission_attrs,
        )
        self.obs.activity.begin(
            query_id,
            tenant=record.tenant,
            level=level_value,
            requested_level=requested_value,
            deadline_s=deadline,
            admission=decision.action,
            prior=self._prior(fp, level_value, record.tenant),
        )
        tracer.instant(
            query_id, "submit", level=level_value, price_per_tb=price_per_tb
        )
        self._journal(
            record,
            "submit",
            level_value,
            tenant=record.tenant,
            price_per_tb=price_per_tb,
            deadline_s=deadline,
            **admission_attrs,
        )

    def rejected(self, record: "ServerQuery", reason: str, error: str) -> None:
        """Admission or hold-queue back-pressure refused the submission."""
        self._m_rejected.inc(level=record.requested_level.value)
        self._m_admission_rejected.inc(reason=reason)
        self.obs.tracer.end_open(record.query_id, "error", error=error)
        # The trace is closed by now: fingerprint, but no span id.
        self.obs.journal.event(
            "reject",
            record.query_id,
            fingerprint=record.fingerprint.id,
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
        level = record.level.value
        if held:
            self._close_queue_span(record, status="downgraded")
        self._m_admission_downgraded.inc(reason=reason)
        self._journal(
            record,
            "downgrade",
            level,
            reason=reason,
            requested_level=record.requested_level.value,
        )
        if held:
            self.obs.activity.downgrade(
                record.query_id,
                level,
                reason,
                deadline_s=record.level.deadline_s(self._grace_period_s),
                prior=self._prior(record.fingerprint, level, record.tenant),
            )

    def queued(
        self, record: "ServerQuery", reason: str, share: float, finish_tag: float
    ) -> None:
        """The query entered its level's weighted-fair hold queue."""
        level = record.level.value
        finish_tag = round(finish_tag, 9)
        self.obs.tracer.start(
            record.query_id,
            "queue",
            level=level,
            reason=reason,
            share=share,
            finish_tag=finish_tag,
        )
        self._journal(
            record, "queue", level, reason=reason, share=share, finish_tag=finish_tag
        )
        self.obs.activity.mark_queued(record.query_id)

    def dispatched(self, record: "ServerQuery", batch: bool = False) -> None:
        """The server is about to hand the query to the coordinator
        (``batch``: as a member of a shared-scan batch)."""
        level = record.level.value
        self._close_queue_span(record)
        attrs: dict[str, object] = {"batch": True} if batch else {}
        self.obs.tracer.instant(record.query_id, "dispatch", level=level, **attrs)
        self._journal(
            record,
            "dispatch",
            level,
            held_s=round(self._clock() - record.submitted_at, 9),
            **attrs,
        )
        self.obs.activity.mark_dispatched(record.query_id)

    def cancelled_held(self, record: "ServerQuery") -> None:
        """The user (or the guard) cancelled a query still in a hold
        queue; the ledger gets a zero void so the cancel is on record."""
        query_id, level = record.query_id, record.level.value
        self._close_queue_span(record, status="cancelled")
        self._journal(record, "cancel", level, stage="held")
        self.obs.ledger.void(
            query_id,
            tenant=record.tenant,
            level=level,
            venue="none",
            # Still open: only the query's own terminal transitions close
            # its root, and a held query has had none.
            span_id=self.obs.tracer.root(query_id),
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
                record.level.value,
                rule=decision.rule,
                action=decision.action,
                applied=decision.applied,
                reason=decision.reason,
            )

    def completed(
        self,
        record: "ServerQuery",
        execution: "QueryExecution",
        profile_of: Callable[[str], "QueryProfile"],
    ) -> None:
        """The coordinator finished the query — billed, cancelled in
        flight, or failed; the server has already priced it.
        ``profile_of`` is the server's ``query_profile``, asked only if
        the journal captures the query."""
        obs = self.obs
        query_id = record.query_id
        level_value = record.level.value
        root = obs.tracer.root(query_id)
        fp = record.fingerprint
        deadline = record.level.deadline_s(self._grace_period_s)
        pending = record.pending_time_s
        slack = (
            deadline - pending
            if deadline is not None and pending is not None
            else None
        )
        venue = (
            execution.venue.value if execution.venue is not None else "none"
        )
        bill = record.bill
        if bill is not None:
            stats = execution.result.stats
            price_per_tb = self._coordinator.cost_model.price_per_tb(record.level)
            obs.ledger.charge_query(
                query_id,
                axes=bill.axes,
                billed_nanodollars=bill.billed_nanodollars,
                tenant=record.tenant,
                level=level_value,
                venue=venue,
                span_id=root,
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
            obs.tracer.instant(
                query_id,
                "bill",
                parent=root,
                level=level_value,
                price=record.price,
                price_per_tb=price_per_tb,
                price_fraction=record.level.price_fraction,
                bytes_scanned=stats.bytes_scanned,
                deadline_s=deadline,
                slack_s=slack,
            )
            obs.tracer.end_open(query_id, "ok")
            projection = obs.activity.finish_billed(
                query_id, bill.billed_nanodollars, axes=bill.axes
            )
            if projection is not None:
                # Estimated-vs-actual; the trace is closed by now, so the
                # row carries the fingerprint but no span id.
                obs.journal.event(
                    "projection",
                    query_id,
                    fingerprint=fp.id,
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
                    span_id=root,
                    reason="cancelled",
                )
                obs.activity.finish_cancelled(query_id)
            else:
                obs.activity.finish_failed(query_id, execution.error)
        self._fold_statement(record, execution, fp, slack, venue, profile_of)
        if pending is not None:
            self._m_pending.observe(pending, level=level_value)

    def _fold_statement(
        self,
        record: "ServerQuery",
        execution: "QueryExecution",
        fp: "Fingerprint",
        slack: float | None,
        venue: str,
        profile_of: Callable[[str], "QueryProfile"],
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
        bill = record.bill
        self.obs.statements.record(
            fp,
            level_value,
            time_s=time_s,
            pending_s=pending or 0.0,
            nanodollars=record.price_nanodollars,
            axes=bill.axes if bill is not None else None,
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
            span_id=ROOT,
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
                profile = profile_of(record.query_id)
            except PixelsError:
                profile = None
            journal.capture(
                record.query_id,
                reasons,
                profile,
                span_id=ROOT,
                fingerprint=fp.id,
                level=level_value,
                slack_s=round(slack, 9) if slack is not None else None,
                billed_dollars=round(record.price, 12),
            )


class ExecutionRecorder:
    """Writes every sink a coordinator transition feeds, in one place.

    It keeps no per-query state and no reference to its coordinator: the
    span an attempt opened is named by the trace's newest span of its
    name, found when the log is folded, so the coordinator's completion
    and crash continuations capture no span, and a fan-out relaunched
    for a query cancelled mid-invocation still parents under that
    query's (closed) ``execute`` span.
    """

    def __init__(self, obs: "Instrumentation", coordinator: "Coordinator") -> None:
        """``coordinator``'s cost model and request price price execution
        windows, and its venues, store and VM pool join the registry's
        derived series."""
        self._tracer = obs.tracer
        self._ledger = obs.ledger
        self._activity = obs.activity
        registry = obs.metrics
        self._cost_model = coordinator.cost_model
        self._get_price_per_1000 = coordinator.store.profile.get_price_per_1000
        self._m_queries = registry.counter(
            "pixels_queries_total", "Finished queries by venue and status"
        )
        self._m_bytes = registry.counter(
            "pixels_bytes_scanned_total", "Logical bytes scanned (billing basis)"
        )
        self._m_provider = registry.counter(
            "pixels_provider_cost_dollars_total",
            "Infrastructure spend accrued by venue",
        )
        self._m_retries = registry.counter(
            "pixels_query_retries_total", "Execution retries by venue"
        )
        self._m_exec_seconds = registry.histogram(
            "pixels_query_execution_seconds", "Simulated execution time by venue"
        )
        registry.shared(VenueSeries).add(
            coordinator.vm_cluster,
            coordinator.cf_service,
            coordinator.store,
            coordinator.vm_buffer_pool,
        )

    @classmethod
    def observing(
        cls, obs: "Instrumentation", coordinator: "Coordinator"
    ) -> "ExecutionRecorder | None":
        """A recorder over ``obs`` when the bundle is observed, else
        ``None`` — the coordinator's one guard."""
        return cls(obs, coordinator) if obs.enabled else None

    # -- transitions ------------------------------------------------------------

    def planned(
        self,
        execution: "QueryExecution",
        prepared: "PreparedStatement | None" = None,
        error: str | None = None,
        batch: bool = False,
    ) -> None:
        """Planning ended: with the ``prepared`` statement (its plan's
        shape hash becomes the execution's statement-store plan identity)
        or with ``error``."""
        attrs: dict[str, object] = {"batch": True} if batch else {}
        if error is not None:
            self._tracer.instant(
                execution.query_id, "plan", status="error", error=error, **attrs
            )
            return
        self._tracer.instant(execution.query_id, "plan", **attrs)
        execution.plan_shape = prepared.plan_shape

    def vm_queued(self, execution: "QueryExecution") -> None:
        """The query asked the VM cluster for a slot — again, if it has
        retries behind it (a worker crashed under the last attempt)."""
        if execution.retries:
            self._m_retries.inc(venue="vm")
        self._tracer.start(execution.query_id, "vm_queue")

    def attempt_started(self, execution: "QueryExecution", **attrs: object) -> None:
        """``execution.venue`` began running the plan; ``attrs`` (worker,
        batch shape) label the ``execute`` span with it.  Ends the VM
        queue wait, if there was one."""
        self._tracer.finish(execution.query_id, "vm_queue", "ok")
        self._tracer.start(
            execution.query_id, "execute", venue=execution.venue.value, **attrs
        )

    def attempt_measured(
        self,
        execution: "QueryExecution",
        scanned: "QueryStats",
        merged: "QueryStats | None" = None,
        merged_batches: int = 0,
    ) -> None:
        """The engine ran the plan: an instant ``scan`` child of the
        ``execute`` span carrying the scan-side accounting and, for a CF
        attempt (``merged`` is the top-level plan's stats), the ``merge``
        child and the fan-out width."""
        query_id = execution.query_id
        tracer = self._tracer
        tracer.instant(
            query_id,
            "scan",
            parent="execute",
            bytes_scanned=scanned.bytes_scanned,
            rows_scanned=scanned.rows_scanned,
            get_requests=scanned.get_requests,
            cache_hits=scanned.cache_hits,
            cache_misses=scanned.cache_misses,
            row_groups_skipped=scanned.row_groups_skipped,
        )
        if merged is not None:
            tracer.instant(
                query_id,
                "merge",
                parent="execute",
                rows_produced=merged.rows_produced,
                batches=merged_batches,
            )
            tracer.set(query_id, "execute", cf_workers=execution.cf_workers)

    def window_opened(
        self,
        execution: "QueryExecution",
        duration_s: float,
        stats: "QueryStats",
        merge_at: float | None = None,
    ) -> None:
        """The attempt occupies its venue over ``[now, now + duration_s]``:
        the live activity registry derives progress and bill projections
        from this window (a no-op for queries never submitted through a
        query server).  The window is priced here, at the level the
        registry holds for the query, with the meter the server bills
        with — so projection and bill cannot disagree at the terminal
        state."""
        query_id, venue = execution.query_id, execution.venue.value
        entry = self._activity.entry(query_id)
        if entry is None or entry.terminal:  # never submitted, or ended
            return
        final = self._cost_model.meter(
            stats,
            venue,
            ServiceLevel(entry.level),
            get_price_per_1000=self._get_price_per_1000,
        )
        self._activity.begin_execution(
            query_id,
            venue=venue,
            duration_s=duration_s,
            profile=execution.profile,
            final=final,
            merge_at=merge_at,
        )

    def provider_charged(self, execution: "QueryExecution", cost: float) -> None:
        """Provider-side spend accrued: the metric plus a provider-account
        meter event in the ledger (the operator's worker-second bill for
        this query at its venue)."""
        venue = execution.venue.value
        self._m_provider.inc(cost, venue=venue)
        self._ledger.charge(
            execution.query_id,
            axis="compute",
            nanodollars=round(cost * NANOS_PER_DOLLAR),
            account="provider",
            venue=venue,
        )

    def cf_invoked(self, execution: "QueryExecution") -> None:
        """A CF fan-out was launched — again, if the execution has
        retries behind it: the previous invocation failed."""
        query_id = execution.query_id
        if execution.retries:
            self._tracer.finish(
                query_id, "cf_invoke", "retry", reason="cf invocation failed"
            )
            self._m_retries.inc(venue="cf")
        self._tracer.start(
            query_id,
            "cf_invoke",
            parent="execute",
            workers=execution.cf_workers,
            attempt=execution.retries,
        )

    def attempt_ended(
        self,
        execution: "QueryExecution",
        status: str,
        result: "QueryResult | None" = None,
        provider_cost: float | None = None,
        **failure: object,
    ) -> None:
        """The ``execute`` attempt is over — ``ok`` (with its ``result``
        and what it cost the provider), ``retry`` (the worker crashed and
        the query goes round again) or ``error`` — and with it the CF
        fan-out still in flight, if any.  ``failure`` (``error=`` or
        ``reason=``) labels both spans."""
        attrs = dict(failure)
        self._tracer.finish(execution.query_id, "cf_invoke", status, **attrs)
        if result is not None:
            attrs["bytes_scanned"] = result.stats.bytes_scanned
        if provider_cost is not None:
            attrs["provider_cost"] = provider_cost
        self._tracer.finish(execution.query_id, "execute", status, **attrs)

    def finished(self, execution: "QueryExecution", status: str) -> None:
        """The execution reached a terminal state: ``ok``, ``error`` or
        ``cancelled``."""
        venue = execution.venue.value if execution.venue is not None else "none"
        self._m_queries.inc(venue=venue, status=status)
        if status == "ok":
            self._m_bytes.inc(execution.result.stats.bytes_scanned)
            if execution.execution_time_s is not None:
                self._m_exec_seconds.observe(
                    execution.execution_time_s, venue=venue
                )
        else:
            # No failure path may leak an open span: whatever the query
            # still has open (the execute attempt an engine error or a
            # cancel cut short, a queue span, the server's root) closes
            # here, with the failure status and message.
            self._tracer.end_open(
                execution.query_id, status, error=execution.error
            )
