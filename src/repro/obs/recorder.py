"""The only two writers of observability: one per layer that has a story.

A query's life is a handful of transitions, and each of them feeds
several sinks at once: a span, a journal line, a ledger event, an
activity state, a counter.  Two classes own those writes, one method per
transition, and nothing outside this module appends to the lifecycle
log, registers an instrument (bar the derived series the recorders
join) or touches a lifecycle sink:

* :class:`QueryRecorder` — the query server's transitions: submitted,
  downgraded, rejected, queued, dispatched, cancelled while held,
  completed, judged by the projection guard.  It writes the eager
  lifecycle stores (SLO tracker, statement store and ledger — the spend
  accountant is a view over it), one lifecycle-log entry per transition
  (the ``query`` / ``submit`` / ``queue`` / ``dispatch`` / ``bill``
  spans, journal rows and activity states are folded from it) and the
  server's instruments, and its scheduler joins the registry's
  hold-queue depth series.
* :class:`ExecutionRecorder` — the coordinator's transitions: planned,
  VM-queued, attempt started, attempt measured, execution window opened,
  provider charged, CF fan-out invoked, attempt ended, finished.  It
  writes one lifecycle-log entry per transition (the ``plan`` /
  ``vm_queue`` / ``execute`` / ``scan`` / ``merge`` / ``cf_invoke``
  spans and the activity registry's execution windows), the
  provider-account ledger rows and the execution instruments, and its
  coordinator joins the registry's venue and storage series
  (:mod:`repro.obs.derived` sums them at scrape time).

Each owner holds its recorder, or ``None`` when unobserved, so a
transition costs it a single guarded call and it knows no sink by name.
Neither recorder keeps per-query state, and no transition reads the
tracer, the journal or the activity registry back: an entry carries
atoms only (:mod:`repro.obs.lifecycle`), a span a transition closes or
parents under is named in it (the trace's newest ``queue`` or
``execute`` span) and found when the log is replayed, and what a later
transition needs of an earlier one rides on the owner's record — the
fingerprint a submission was named by and its root span id on
:class:`~repro.core.query_server.ServerQuery`, the level an execution is
billed at on :class:`~repro.turbo.coordinator.QueryExecution`.  What
is still consulted is kept eagerly as it goes: the statement store's
prior, taken at submission, and the journal's capture policy (its
slowest-N ring and its count of kept captures), at completion.

Neither recorder parses SQL or hashes a plan.  The statement fingerprint
and the plan's shape hash are read off the coordinator's prepared
statement (:meth:`Coordinator.statement`), which parses each text once
for planning and naming alike and keeps both values once asked for.

**Call order is the format.**  Span ids and ledger ``seq`` are
counters, the lifecycle log is replayed in append order (a journal row
is labelled with the query's root span only if that span had not closed
by the row's place in the log, the activity registry's prior is the
statement store's as the submission found it), so the order in which an
owner calls the methods — and the order of the fields a method appends,
which :class:`~repro.obs.lifecycle.Replay` reads — is part of every
export.  Reordering two calls changes bytes on disk.  No sink reads or
calls another: the one such read is in this module, in the method that
writes its result.

Neither recorder prices anything: the coordinator takes the meter
reading (:meth:`CostModel.meter <repro.turbo.cost.CostModel.meter>`:
price, integer nanodollars, per-resource split) as each execution
window opens, :meth:`ExecutionRecorder.window_opened` logs it as the
activity registry's projection, and a successful execution's bill
(``record.bill``) is that same reading, which the ledger, the statement
store and the activity registry's actual bill all record.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

# ``repro.core.query_server`` imports this module after these two, so the
# upward imports are already loaded by the time they run.
from repro.core.scheduler import LevelScheduler
from repro.engine.pipeline import BLOCKING_PLAN_NODES
from repro.obs.derived import HeldQueueSeries, VenueSeries
from repro.obs.lifecycle import (
    ATTEMPT_END,
    CANCEL,
    CF_INVOKE,
    COMPLETE,
    DISPATCH,
    DOWNGRADE,
    EXECUTE,
    FAIL,
    GUARD,
    MEASURE,
    PLAN,
    QUEUE,
    REJECT,
    SUBMIT,
    VM_QUEUE,
    WINDOW,
)
from repro.obs.metrics import (
    ADMISSION_DOWNGRADES_METRIC,
    ADMISSION_REJECTIONS_METRIC,
    GUARD_DECISIONS_METRIC,
)
from repro.obs.profiler import AXES, NANOS_PER_DOLLAR
from repro.obs.slo import SLACK_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import ServerQuery
    from repro.engine.executor import OperatorProfile, QueryResult, QueryStats
    from repro.obs import Instrumentation
    from repro.obs.activity import GuardDecision
    from repro.obs.fingerprint import Fingerprint
    from repro.turbo.coordinator import (
        Coordinator,
        PreparedStatement,
        QueryExecution,
    )


def _axis_values(axes: dict[str, int]) -> tuple[int, ...]:
    """``axes`` as the log keeps them: nanodollars in ``AXES`` order."""
    return tuple(map(axes.__getitem__, AXES))


def _flatten_operators(profile: "OperatorProfile") -> tuple[tuple, ...]:
    """Pre-order walk of the profile tree into
    :attr:`~repro.obs.lifecycle.ActivityEntry.operators`."""
    work: list[tuple] = []
    stack = [(profile, 0)]
    while stack:
        node, depth = stack.pop()
        blocking = node.name in BLOCKING_PLAN_NODES
        morsels = node.morsels if not node.children else 0
        emit_at = 1.0
        if blocking and node.time_s > 0:
            # The sink accumulates while its subtree (children) works and
            # emits during its own self time — the tail of its window.
            emit_at = max(0.0, min(1.0, 1.0 - node.self_time_s / node.time_s))
        work.append((node.name, depth, morsels, blocking, round(emit_at, 9)))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return tuple(work)


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
        self._log = obs.log
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
            _axis_values(stats.axes),
        )

    def knows(self, query_id: str) -> bool:
        """Whether the bundle already records a query ``query_id`` — any
        server or coordinator sharing it may have used the id."""
        return query_id in self._log.heads

    # -- transitions ----------------------------------------------------------

    def submitted(self, record: "ServerQuery") -> None:
        """The server accepted a submission for judgement (it may still be
        rejected): counter → fingerprint → the ``query`` root and
        ``submit`` spans, the activity entry (with the statement store's
        prior) and the ``submit`` row."""
        level, tenant = record.level, record.tenant
        level_value = level.value
        requested = record.requested_level.value
        decision = record.admission
        self._m_submitted.inc(level=requested)
        fp = record.fingerprint = self._coordinator.statement(record.sql).fingerprint
        verdict = decision.to_attrs() if decision.action != "admit" else {}
        record.root_span = self._log.append(
            record.query_id, SUBMIT,
            level_value, requested, tenant,
            level.deadline_s(self._grace_period_s),
            self._coordinator.cost_model.price_per_tb(level),
            level.price_fraction, fp.id, record.sql, decision.action,
            self._prior(fp, level_value, tenant), *verdict, *verdict.values(),
        )

    def rejected(self, record: "ServerQuery", reason: str, error: str) -> None:
        """Admission or hold-queue back-pressure refused the submission."""
        self._m_rejected.inc(level=record.requested_level.value)
        self._m_admission_rejected.inc(reason=reason)
        self._log.append(
            record.query_id, REJECT,
            record.level.value, record.fingerprint.id, error, reason,
        )

    def downgraded(
        self, record: "ServerQuery", reason: str, held: bool = False
    ) -> None:
        """``record.level`` is now best-effort: the admission layer
        downgraded the submission, or (``held``) the projection guard
        demoted a query out of the relaxed hold queue — which then waits
        and bills as the new level does."""
        level = record.level.value
        self._m_admission_downgraded.inc(reason=reason)
        self._log.append(
            record.query_id, DOWNGRADE,
            level, record.fingerprint.id, reason,
            record.requested_level.value, held, record.submitted_at,
            record.level.deadline_s(self._grace_period_s) if held else None,
            self._prior(record.fingerprint, level, record.tenant) if held else None,
        )

    def queued(
        self, record: "ServerQuery", reason: str, share: float, finish_tag: float
    ) -> None:
        """The query entered its level's weighted-fair hold queue."""
        self._log.append(
            record.query_id, QUEUE,
            record.level.value, record.fingerprint.id, reason, share,
            round(finish_tag, 9),
        )

    def dispatched(self, record: "ServerQuery", batch: bool = False) -> None:
        """The server is about to hand the query to the coordinator
        (``batch``: as a member of a shared-scan batch)."""
        self._log.append(
            record.query_id, DISPATCH,
            record.level.value, record.fingerprint.id, record.submitted_at,
            batch,
        )

    def cancelled_held(self, record: "ServerQuery") -> None:
        """The user (or the guard) cancelled a query still in a hold
        queue; the ledger gets a zero void so the cancel is on record."""
        level = record.level.value
        self._log.append(
            record.query_id, CANCEL,
            level, record.fingerprint.id, record.submitted_at,
        )
        self.obs.ledger.void(
            record.query_id,
            tenant=record.tenant,
            level=level,
            venue="none",
            span_id=record.root_span,
            reason="cancelled_held",
        )

    def guard_decided(
        self, decision: "GuardDecision", record: "ServerQuery | None"
    ) -> None:
        """The projection guard ruled on ``record`` (None: the query is
        gone from the server, only the counter moves)."""
        self._m_guard.inc(rule=decision.rule, action=decision.action)
        if record is not None:
            self._log.append(
                record.query_id, GUARD,
                record.level.value, record.fingerprint.id, decision.rule,
                decision.action, decision.applied, decision.reason,
            )

    def completed(
        self, record: "ServerQuery", execution: "QueryExecution"
    ) -> None:
        """The coordinator finished the query — billed, cancelled in
        flight, or failed; its bill is already on ``record``."""
        obs = self.obs
        query_id = record.query_id
        level = record.level
        level_value = level.value
        root = record.root_span
        fp = record.fingerprint
        deadline = level.deadline_s(self._grace_period_s)
        pending = record.pending_time_s
        slack = (
            deadline - pending
            if deadline is not None and pending is not None
            else None
        )
        venue = (
            execution.venue.value if execution.venue is not None else "none"
        )
        error = execution.error
        stats = (
            execution.result.stats if execution.result is not None else None
        )
        price_per_tb = self._coordinator.cost_model.price_per_tb(level)
        bill = record.bill
        cancelled = record.cancelled or error == "cancelled by user"
        if bill is not None:
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
        elif cancelled:
            obs.ledger.void(
                query_id,
                tenant=record.tenant,
                level=level_value,
                venue=venue,
                span_id=root,
                reason="cancelled",
            )
        time_s = execution.execution_time_s
        obs.statements.record(
            fp,
            level_value,
            time_s=time_s or 0.0,
            pending_s=pending or 0.0,
            nanodollars=record.price_nanodollars,
            axes=bill.axes if bill is not None else None,
            stats=stats,
            plan_shape=execution.plan_shape,
            error=error is not None,
            tenant=record.tenant,
        )
        reasons = obs.journal.capture_reasons(
            time_s=time_s,
            billed=record.price if error is None else None,
            slack_s=slack,
            error=error is not None,
            downgraded=record.downgraded,
        )
        kept = bool(reasons) and obs.journal.keep_capture()
        self._log.append(
            query_id, COMPLETE,
            level_value, fp.id, root, error, cancelled, venue, time_s,
            pending, deadline, slack, record.price, price_per_tb,
            level.price_fraction,
            stats.bytes_scanned if stats is not None else 0,
            stats.rows_produced if stats is not None else 0,
            execution.plan_shape,
            bill.billed_nanodollars if bill is not None else None,
            _axis_values(bill.axes) if bill is not None else None,
            tuple(reasons) if reasons else None,
            kept,
            # The journal renders a capture's evidence from these two when
            # read.  A query that failed inside its own dispatch is not on
            # its record yet, and has no profile to capture.
            (execution.profile, bill)
            if kept and record.execution is execution
            else None,
        )
        if pending is not None:
            self._m_pending.observe(pending, level=level_value)


class ExecutionRecorder:
    """Writes every sink a coordinator transition feeds, in one place.

    It keeps no per-query state and no reference to its coordinator: the
    span an attempt opened is named by the trace's newest span of its
    name, found when the log is replayed, so the coordinator's
    completion and crash continuations capture no span.
    """

    def __init__(self, obs: "Instrumentation", coordinator: "Coordinator") -> None:
        """``coordinator``'s venues, store and VM pool join the registry's
        derived series."""
        self._log = obs.log
        self._ledger = obs.ledger
        registry = obs.metrics
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
        self._log.append(execution.query_id, PLAN, error, batch)
        if error is None:
            execution.plan_shape = prepared.plan_shape

    def vm_queued(self, execution: "QueryExecution") -> None:
        """The query asked the VM cluster for a slot — again, if it has
        retries behind it (a worker crashed under the last attempt)."""
        if execution.retries:
            self._m_retries.inc(venue="vm")
        self._log.append(execution.query_id, VM_QUEUE)

    def attempt_started(self, execution: "QueryExecution", **attrs: object) -> None:
        """``execution.venue`` began running the plan; ``attrs`` (worker,
        batch shape) label the ``execute`` span with it.  Ends the VM
        queue wait, if there was one."""
        self._log.append(
            execution.query_id, EXECUTE,
            execution.venue.value, *attrs, *attrs.values(),
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
        self._log.append(
            execution.query_id, MEASURE,
            scanned.bytes_scanned, scanned.rows_scanned, scanned.get_requests,
            scanned.cache_hits, scanned.cache_misses,
            scanned.row_groups_skipped,
            merged.rows_produced if merged is not None else None,
            merged_batches, execution.cf_workers,
        )

    def window_opened(
        self,
        execution: "QueryExecution",
        duration_s: float,
        merge_at: float | None = None,
    ) -> None:
        """The attempt occupies its venue over ``[now, now + duration_s]``:
        the live activity registry derives progress and bill projections
        from this window and the reading the coordinator took as it
        opened (a no-op for a query no server submitted, which has no
        reading).  A successful execution's bill is that same reading, so
        projection and bill cannot disagree at the terminal state."""
        final = execution.reading
        if final is None:
            return
        profile = execution.profile
        self._log.append(
            execution.query_id, WINDOW,
            execution.venue.value, max(0.0, duration_s),
            _flatten_operators(profile) if profile is not None else (),
            final.billed_nanodollars, _axis_values(final.axes), merge_at,
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
        if execution.retries:
            self._m_retries.inc(venue="cf")
        self._log.append(
            execution.query_id, CF_INVOKE,
            execution.retries, execution.cf_workers,
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
        self._log.append(
            execution.query_id, ATTEMPT_END,
            status,
            result.stats.bytes_scanned if result is not None else None,
            provider_cost, *failure, *failure.values(),
        )

    def finished(self, execution: "QueryExecution", status: str) -> None:
        """The execution reached a terminal state: ``ok``, ``error`` or
        ``cancelled``; a failure closes whatever the query still has
        open."""
        venue = execution.venue.value if execution.venue is not None else "none"
        self._m_queries.inc(venue=venue, status=status)
        if status == "ok":
            self._m_bytes.inc(execution.result.stats.bytes_scanned)
            if execution.execution_time_s is not None:
                self._m_exec_seconds.observe(
                    execution.execution_time_s, venue=venue
                )
        else:
            self._log.append(execution.query_id, FAIL, status, execution.error)
