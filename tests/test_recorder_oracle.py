"""The recorders' lifecycle-log entries, folded, equal the eager recorder
over the eager sinks it wrote.

The query and execution recorders append one entry per transition, and
the tracer, the journal and the activity registry are folds of those
entries.  The recorders they replaced wrote each fact to each sink as it
happened; they are kept verbatim in ``tests/eager_recorder.py``, and
the eager sinks in ``tests/eager_tracer.py``, ``tests/eager_journal.py``
and ``tests/eager_activity.py``.  Small adapters below answer the eager
recorder's calls with those sinks (its tracer calls by span id or newest
name, its journal rows labelled "while open", its priors as tuples).

A Hypothesis state machine drives the same transition sequences through
both stacks, each with its own server records and executions: submits
that are rejected by admission or a full queue, admitted, downgraded at
admission, held or dispatched at once; holds demoted, cancelled or
dispatched, alone or in a shared batch; a dispatch that fails inside
itself; every coordinator transition — planned (or failed to plan),
VM-queued, attempt started, measured (VM and CF), window opened,
provider charged, CF invoked and re-invoked after a failed invocation,
attempt ended ok, for a retry or with an error — on server queries and
on coordinator-only ones; and completions billed, failed and cancelled,
with the capture policy and its cap in play.  A projection guard, when
armed, demotes and cancels through each stack's own records, and its
rulings are journalled.  Every export is compared: traces and each
timeline, the journal, the activity snapshot and each entry, the
projection report, the guard's audit log and alerts, and the ledger,
statement store, SLO tracker and metrics the recorders also write.

Tier-1 runs a small derandomized budget.  The long profile::

    PYTHONPATH=src python -m tests.test_recorder_oracle --examples 2000
"""

from __future__ import annotations

import argparse
from types import SimpleNamespace

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.query_server import ServerQuery
from repro.core.scheduler import LevelScheduler
from repro.core.scheduler.admission import AdmissionDecision
from repro.core.service_levels import ServiceLevel
from repro.engine.executor import OperatorProfile, QueryResult, QueryStats
from repro.errors import PixelsError
from repro.obs import (
    ROOT,
    Instrumentation,
    MeterLedger,
    MetricsRegistry,
    SloTracker,
    SpendAccountant,
    StatementStore,
    build_query_profile,
)
from repro.obs.activity import GuardPolicy, ProjectionGuard
from repro.obs.journal import CapturePolicy
from repro.obs.profiler import AXES
from repro.obs.recorder import ExecutionRecorder, QueryRecorder
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.coordinator import ExecutionVenue, QueryExecution
from tests import eager_activity, eager_journal, eager_recorder, eager_tracer

GRACE_S = 60.0
TEXTS = (
    "SELECT count(*) FROM orders",
    "SELECT count(*) FROM orders WHERE o_totalprice > 10",
    "SELECT o_orderstatus, count(*) FROM orders GROUP BY o_orderstatus",
)
BUDGETS = {"acme": 1e-6}


class FakeClock:
    def __init__(self) -> None:
        # Off zero, so a difference of two readings is seldom exact.
        self.now = 0.1

    def __call__(self) -> float:
        return self.now


# -- the eager stack: today's sink calls, answered by the eager sinks ---------


class EagerTracer:
    """The tracer calls the eager recorder makes, on the eager tracer."""

    def __init__(self, clock) -> None:
        self.eager = eager_tracer.Tracer(clock)
        self.by_id: dict[int, eager_tracer.Span] = {}
        self.roots: dict[str, int] = {}

    def _span(self, trace_id, ref):
        """The trace's span with id ``ref``, or its newest called ``ref``."""
        if isinstance(ref, int):
            span = self.by_id.get(ref)
            return span if span is not None and span.trace_id == trace_id else None
        return self.eager.last(trace_id, ref)

    def start(self, trace_id, name, parent=None, **attributes) -> int:
        if parent is ROOT:
            eager_parent = eager_tracer.ROOT
        elif parent is not None:
            eager_parent = self._span(trace_id, parent)
        else:
            eager_parent = None
        span = self.eager.start(trace_id, name, parent=eager_parent, **attributes)
        self.by_id[span.span_id] = span
        if parent is ROOT:
            self.roots[trace_id] = span.span_id
        return span.span_id

    def instant(self, trace_id, name, parent=None, status="ok", **attributes):
        self.by_id[self.start(trace_id, name, parent, **attributes)].finish(status)

    def finish(self, trace_id, ref, status="ok", **attributes):
        span = self._span(trace_id, ref)
        if span is not None:
            span.finish(status, **attributes)

    def set(self, trace_id, ref, **attributes):
        span = self._span(trace_id, ref)
        if span is not None:
            span.set(**attributes)

    def end_open(self, trace_id, status="ok", **attributes):
        self.eager.end_open(trace_id, status, **attributes)

    def root(self, trace_id):
        return self.roots.get(trace_id)


class EagerJournal:
    """The journal calls the eager recorder makes, labelled as the
    recorder asks (the root span, "while open") on the eager journal."""

    def __init__(self, clock, policy, tracer: EagerTracer) -> None:
        self.eager = eager_journal.QueryJournal(clock, policy)
        self._tracer = tracer

    def _labels(self, query_id, span_id, fingerprint, while_open):
        if span_id is ROOT:
            span_id = self._tracer.root(query_id)
        if while_open:
            span = self._tracer.by_id.get(span_id)
            if span is None or span.trace_id != query_id or span.end is not None:
                span_id = fingerprint = None
        return span_id, fingerprint

    def event(self, event, query_id, *, span_id=None, fingerprint=None,
              level=None, while_open=False, **attrs):
        span_id, fingerprint = self._labels(query_id, span_id, fingerprint, while_open)
        self.eager.event(
            event, query_id, span_id=span_id, fingerprint=fingerprint,
            level=level, **attrs,
        )

    def capture_reasons(self, **kwargs):
        return self.eager.capture_reasons(**kwargs)

    def capture(self, query_id, reasons, profile, *, span_id=None,
                fingerprint=None, level=None, **attrs):
        span_id, fingerprint = self._labels(query_id, span_id, fingerprint, False)
        self.eager.capture(
            query_id, reasons, profile, span_id=span_id,
            fingerprint=fingerprint, level=level, **attrs,
        )


def eager_prior(prior):
    if prior is None:
        return None
    return eager_activity.Prior(prior[0], prior[1], dict(zip(AXES, prior[2])))


class EagerActivity:
    """The activity calls the eager recorder makes, priors as the eager
    registry takes them."""

    def __init__(self, clock, metrics) -> None:
        self.eager = eager_activity.ActivityRegistry(clock, metrics)

    def __getattr__(self, name):
        return getattr(self.eager, name)

    def knows(self, query_id) -> bool:
        return self.eager.entry(query_id) is not None

    def begin(self, query_id, *, prior=None, **kwargs):
        self.eager.begin(query_id, prior=eager_prior(prior), **kwargs)

    def downgrade(self, query_id, level, reason, *, deadline_s, prior):
        self.eager.downgrade(
            query_id, level, reason, deadline_s=deadline_s,
            prior=eager_prior(prior),
        )


def eager_bundle(clock, policy) -> SimpleNamespace:
    """The sinks the eager recorder wrote, as one observed bundle."""
    metrics = MetricsRegistry()
    ledger = MeterLedger(clock)
    tracer = EagerTracer(clock)
    return SimpleNamespace(
        tracer=tracer,
        metrics=metrics,
        slo=SloTracker(None),
        statements=StatementStore(),
        journal=EagerJournal(clock, policy, tracer),
        ledger=ledger,
        spend=SpendAccountant(ledger, BUDGETS),
        activity=EagerActivity(clock, metrics),
        enabled=True,
    )


# -- one stack: a bundle, its two recorders, and its own records ---------------


def profile_of_shape(shape: int) -> OperatorProfile | None:
    """No profile, a lone scan, or an aggregate over a join of two scans."""
    if shape == 0:
        return None
    if shape == 1:
        return OperatorProfile(name="Scan", rows_out=5, time_s=2.0, morsels=7)
    scans = [
        OperatorProfile(name="Scan", rows_out=9, time_s=1.0, morsels=3),
        OperatorProfile(name="Scan", rows_out=4, time_s=0.5, morsels=2),
    ]
    join = OperatorProfile(
        name="HashJoin", rows_out=4, time_s=2.5, self_time_s=1.0, children=scans
    )
    return OperatorProfile(
        name="Aggregate", rows_out=1, time_s=4.0, self_time_s=1.5, children=[join]
    )


def stats_of(seed: int) -> QueryStats:
    stats = QueryStats(
        bytes_scanned=1_000 * seed + 7,
        get_requests=seed,
        cache_hits=seed % 3,
        cache_misses=seed % 2,
        row_groups_skipped=seed % 4,
    )
    stats.rows_scanned = 10 * seed
    stats.rows_produced = seed % 5
    return stats


class Stack:
    """One observed stack: the recorders over ``obs``, and the server
    records and executions they are handed (each stack its own, as the
    guard's actions mutate them)."""

    def __init__(self, obs, eager: bool, coordinator, clock) -> None:
        recorders = eager_recorder if eager else None
        query_recorder = recorders.QueryRecorder if eager else QueryRecorder
        execution_recorder = (
            recorders.ExecutionRecorder if eager else ExecutionRecorder
        )
        self.obs = obs
        self.eager = eager
        self.clock = clock
        self.coordinator = coordinator
        self.queries = query_recorder(
            obs, coordinator, LevelScheduler(), clock=clock,
            grace_period_s=GRACE_S,
        )
        self.executions = execution_recorder(obs, coordinator)
        #: The server's records (a rejected one leaves them).
        self.records: dict[str, ServerQuery] = {}
        self.runs: dict[str, QueryExecution] = {}
        self.guard = None
        self.alerts: list = []

    # -- the server's side ----------------------------------------------------

    def profile_of(self, query_id: str):
        """The server's ``query_profile``, over the eager tracer."""
        record = self.records[query_id]
        execution = record.execution
        if execution is None or execution.finished_at is None:
            raise PixelsError(f"query {query_id!r} has not finished")
        return build_query_profile(
            query_id, self.obs.tracer.eager.timeline(query_id),
            execution.profile, record.bill,
        )

    def arm(self, budget_action, deadline_action) -> None:
        guard = eager_activity.ProjectionGuard if self.eager else ProjectionGuard
        policy = eager_activity.GuardPolicy if self.eager else GuardPolicy
        registry = self.obs.activity.eager if self.eager else self.obs.activity
        self.guard = guard(
            policy(budget_action, deadline_action),
            registry,
            self.obs.spend,
            canceller=self.cancel,
            downgrader=self.demote,
            alert_sink=self.alerts.append,
            on_decision=lambda decision: self.queries.guard_decided(
                decision, self.records.get(decision.query_id)
            ),
        )

    def held(self, query_id: str) -> ServerQuery | None:
        record = self.records.get(query_id)
        if record is None or record.cancelled or record.dispatched_at is not None:
            return None
        return record if record.finish_tag is not None else None

    def submit(self, query_id, sql, level, requested, action, tenant, fate):
        decision = AdmissionDecision(action, level, requested, "pressure")
        record = ServerQuery(
            query_id=query_id, sql=sql, level=level,
            submitted_at=self.clock(), tenant=tenant,
            requested_level=requested, admission=decision,
        )
        self.records[query_id] = record
        self.queries.submitted(record)
        if action == "reject":
            self.records.pop(query_id)
            self.queries.rejected(record, "pressure", "admission refused")
            return
        if action == "downgrade":
            self.queries.downgraded(record, "pressure")
        if fate == "queue_full":
            self.records.pop(query_id)
            self.queries.rejected(record, "queue_full", "queue is full")
        elif fate == "hold":
            self.enqueue(record, 0.5)
        else:
            self.dispatch(record)

    def enqueue(self, record: ServerQuery, share: float) -> None:
        record.finish_tag = self.clock() + 1.0 / 3.0
        self.queries.queued(record, "above_high_watermark", share, record.finish_tag)

    def dispatch(self, record, batch=False, fails=False) -> None:
        self.queries.dispatched(record, batch=batch)
        record.dispatched_at = self.clock()
        execution = QueryExecution(
            query_id=record.query_id, sql=record.sql,
            submitted_at=self.clock(), cf_enabled=False, level=record.level,
        )
        self.runs[record.query_id] = execution
        if fails:
            # Planning fails inside the coordinator's submit, before the
            # server has the execution on its record.
            self.executions.planned(execution, error="no such table", batch=batch)
            self.fail(execution, "no such table", "error")
        record.execution = execution

    def demote(self, query_id: str, reason: str) -> bool:
        """The server's ``downgrade_query``: a held relaxed query waits
        again at best-effort."""
        record = self.held(query_id)
        if record is None or record.level is not ServiceLevel.RELAXED:
            return False
        record.level = ServiceLevel.BEST_EFFORT
        self.queries.downgraded(record, reason, held=True)
        self.enqueue(record, 0.25)
        return True

    def cancel(self, query_id: str) -> bool:
        """The server's ``cancel`` of a held query (a running one is the
        coordinator's, driven by the machine)."""
        record = self.held(query_id)
        if record is None:
            return False
        record.cancelled = True
        self.queries.cancelled_held(record)
        return True

    def completed(self, execution: QueryExecution) -> None:
        record = self.records.get(execution.query_id)
        if record is None or (record.execution is not None and record.execution is not execution):
            return
        if execution.result is not None:
            # The coordinator's reading of what the execution finished with.
            execution.reading = self.reading(execution, execution.result.stats)
        record.bill = execution.bill
        if self.eager:
            self.queries.completed(record, execution, self.profile_of)
        else:
            self.queries.completed(record, execution)

    # -- the coordinator's side -------------------------------------------------

    def reading(self, execution: QueryExecution, stats: QueryStats):
        """The coordinator's meter reading of ``stats`` at the execution's
        level (None without one)."""
        if execution.level is None:
            return None
        venue = execution.venue.value if execution.venue is not None else "none"
        return self.coordinator.cost_model.meter(
            stats, venue, execution.level,
            get_price_per_1000=self.coordinator.store.profile.get_price_per_1000,
        )

    def window_opened(self, execution, duration_s, stats, merge_at=None) -> None:
        """The coordinator opens a window: it takes the execution's reading,
        which the recorder logs; the eager recorder took its own."""
        execution.reading = self.reading(execution, stats)
        if self.eager:
            self.executions.window_opened(execution, duration_s, stats, merge_at)
        else:
            self.executions.window_opened(execution, duration_s, merge_at)

    def fail(self, execution, error: str, status: str) -> None:
        execution.finished_at = self.clock()
        if execution.started_at is None:
            execution.started_at = self.clock()
        execution.error = error
        self.executions.finished(execution, status)
        self.completed(execution)

    def succeed(self, execution, seed: int) -> None:
        execution.finished_at = self.clock()
        if execution.started_at is None:
            execution.started_at = self.clock()
        execution.result = QueryResult(None, stats_of(seed))
        self.executions.finished(execution, "ok")
        self.completed(execution)


class RecorderTransitions(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.stacks: list[Stack] = []
        self.submitted = 0

    @initialize(
        budget_action=st.sampled_from((None, "alert", "downgrade", "cancel")),
        deadline_action=st.sampled_from((None, "alert", "downgrade", "cancel")),
        slowest_n=st.integers(0, 2),
        max_captures=st.integers(1, 3),
    )
    def build(self, budget_action, deadline_action, slowest_n, max_captures):
        policy = CapturePolicy(
            dollar_threshold=1e-9, slowest_n=slowest_n,
            capture_downgrades=True, max_captures=max_captures,
        )
        new = Instrumentation.create(
            clock=self.clock, capture=policy, budgets=BUDGETS
        )
        eager = eager_bundle(self.clock, policy)
        self.stacks = [
            Stack(new, False, COORDINATOR, self.clock),
            Stack(eager, True, COORDINATOR, self.clock),
        ]
        if budget_action is not None or deadline_action is not None:
            for stack in self.stacks:
                stack.arm(budget_action, deadline_action)

    @property
    def model(self) -> Stack:
        """The stack whose records say which transitions are possible
        (the other's are equal, or the exports already differ)."""
        return self.stacks[0]

    def held(self, level: ServiceLevel | None = None) -> list[str]:
        return [
            q for q, record in self.model.records.items()
            if self.model.held(q) is not None
            and (level is None or record.level is level)
        ]

    def live(self) -> list[str]:
        """Queries with an execution that has not finished."""
        return [q for q, x in self.model.runs.items() if x.finished_at is None]

    def runs(self, pick: int) -> list[tuple[Stack, QueryExecution]]:
        live = self.live()
        query = live[pick % len(live)]
        return [(stack, stack.runs[query]) for stack in self.stacks]

    # -- the server's transitions -------------------------------------------------

    @rule(seconds=st.sampled_from((0.0, 0.3, 2.0, 90.0)))
    def tick(self, seconds):
        """The scheduler tick: the clock moves and the guards evaluate."""
        self.clock.now += seconds
        self.evaluate()

    def evaluate(self) -> None:
        if self.model.guard is not None:
            rulings = [
                [d.to_dict() for d in stack.guard.evaluate(self.clock.now)]
                for stack in self.stacks
            ]
            assert rulings[0] == rulings[1]

    @rule(
        sql=st.sampled_from(TEXTS),
        level=st.sampled_from(list(ServiceLevel)),
        action=st.sampled_from(("admit", "admit", "downgrade", "reject")),
        tenant=st.sampled_from(("acme", "beta")),
        fate=st.sampled_from(("hold", "hold", "dispatch", "queue_full")),
    )
    def submit(self, sql, level, action, tenant, fate):
        query = f"q{self.submitted}"
        self.submitted += 1
        known = [stack.queries.knows(query) for stack in self.stacks]
        assert known == [False, False]
        requested = level
        if action == "downgrade":
            requested, level = ServiceLevel.RELAXED, ServiceLevel.BEST_EFFORT
        for stack in self.stacks:
            stack.submit(query, sql, level, requested, action, tenant, fate)
        assert [stack.queries.knows(query) for stack in self.stacks] == [True, True]
        # The server's guard pass after each submission.
        self.evaluate()

    @precondition(lambda self: self.held())
    @rule(
        pick=st.integers(0, 20),
        batch=st.booleans(),
        fails=st.booleans(),
        wait=st.sampled_from((0.3, 2.0)),
    )
    def dispatch(self, pick, batch, fails, wait):
        """A held query leaves its queue on a later tick."""
        self.clock.now += wait
        held = self.held()
        query = held[pick % len(held)]
        for stack in self.stacks:
            stack.dispatch(stack.records[query], batch, fails)

    @precondition(lambda self: self.held(ServiceLevel.RELAXED))
    @rule(pick=st.integers(0, 20))
    def demote(self, pick):
        held = self.held(ServiceLevel.RELAXED)
        query = held[pick % len(held)]
        results = [stack.demote(query, "guard_budget") for stack in self.stacks]
        assert results[0] == results[1]

    @precondition(lambda self: self.held())
    @rule(pick=st.integers(0, 20))
    def cancel_held(self, pick):
        held = self.held()
        query = held[pick % len(held)]
        assert [stack.cancel(query) for stack in self.stacks] == [True, True]

    # -- the coordinator's transitions --------------------------------------------

    @precondition(lambda self: self.stacks and len(self.live()) < 6)
    @rule()
    def lone(self):
        """A query submitted to the coordinator alone."""
        query = f"c{self.submitted}"
        self.submitted += 1
        for stack in self.stacks:
            stack.runs[query] = QueryExecution(
                query_id=query, sql=TEXTS[0], submitted_at=self.clock.now,
                cf_enabled=True,
            )

    @precondition(lambda self: self.live())
    @rule(
        pick=st.integers(0, 20),
        venue=st.sampled_from(("vm", "cf", "batch")),
        setbacks=st.integers(0, 2),
        seed=st.integers(1, 9),
        shape=st.integers(0, 2),
        outcome=st.sampled_from(("ok", "ok", "error", "cancelled")),
    )
    def run_through(self, pick, venue, setbacks, seed, shape, outcome):
        """One execution's whole path, as the coordinator drives it: VM
        attempts a crashed worker retries, CF fan-outs a failed
        invocation relaunches, or a shared batch; then its end."""
        for stack, execution in self.runs(pick):
            run = stack.executions
            run.planned(execution, SimpleNamespace(plan_shape=f"shape-{seed}"),
                        batch=venue == "batch")
            execution.started_at = self.clock.now
            execution.profile = profile_of_shape(shape)
            if venue == "vm":
                execution.venue = ExecutionVenue.VM
                for attempt in range(setbacks + 1):
                    run.vm_queued(execution)
                    run.attempt_started(execution, worker=attempt)
                    run.attempt_measured(execution, stats_of(seed))
                    stack.window_opened(execution, 2.0, stats_of(seed))
                    run.provider_charged(execution, 1e-6 * seed)
                    if attempt < setbacks:
                        run.attempt_ended(execution, "retry", reason="vm worker crashed")
                        execution.retries += 1
                if outcome == "ok":
                    run.attempt_ended(
                        execution, "ok", QueryResult(None, stats_of(seed)), 1e-6
                    )
            elif venue == "cf":
                execution.venue = ExecutionVenue.CF
                execution.cf_workers = seed
                run.attempt_started(execution)
                run.attempt_measured(execution, stats_of(seed), stats_of(seed + 1), 2)
                for attempt in range(setbacks + 1):
                    run.cf_invoked(execution)
                    run.provider_charged(execution, 1e-6 * seed)
                    stack.window_opened(
                        execution, 3.0, stats_of(seed),
                        None if attempt < setbacks else 0.6,
                    )
                    if attempt < setbacks:
                        execution.retries += 1
                if outcome == "ok":
                    run.attempt_ended(
                        execution, "ok", QueryResult(None, stats_of(seed)),
                        execution.provider_cost,
                    )
                elif outcome == "error":
                    run.attempt_ended(execution, "error", error="cf invocation failed")
            else:
                execution.venue = ExecutionVenue.VM
                stack.window_opened(execution, 4.0, stats_of(seed))
                run.attempt_started(
                    execution, batch=True, batch_size=setbacks + 2, bytes_saved=seed
                )
                if outcome == "ok":
                    run.attempt_ended(execution, "ok", QueryResult(None, stats_of(seed)))
            self.end(stack, execution, outcome, seed)

    @staticmethod
    def end(stack: Stack, execution: QueryExecution, outcome: str, seed: int) -> None:
        if outcome == "ok":
            stack.succeed(execution, seed)
        elif outcome == "cancelled":
            record = stack.records.get(execution.query_id)
            if record is not None:
                record.cancelled = True
            stack.fail(execution, "cancelled by user", "cancelled")
        elif outcome == "says_cancelled":
            # A failure whose message quotes a cancel is still an error.
            stack.fail(execution, "cancelled by user", "error")
        else:
            stack.fail(execution, "engine error", "error")

    # Single transitions, in any order the coordinator's callbacks could
    # interleave them with another query's.

    @precondition(lambda self: self.live())
    @rule(pick=st.integers(0, 20), error=st.booleans(), batch=st.booleans())
    def planned(self, pick, error, batch):
        for stack, execution in self.runs(pick):
            if error:
                stack.executions.planned(execution, error="bad plan", batch=batch)
                stack.fail(execution, "bad plan", "error")
            else:
                prepared = SimpleNamespace(plan_shape=f"shape-{pick}")
                stack.executions.planned(execution, prepared, batch=batch)

    @precondition(lambda self: self.live())
    @rule(pick=st.integers(0, 20))
    def vm_queued(self, pick):
        for stack, execution in self.runs(pick):
            stack.executions.vm_queued(execution)

    @precondition(lambda self: self.live())
    @rule(
        pick=st.integers(0, 20),
        how=st.sampled_from(("vm", "cf", "batch")),
        worker=st.integers(0, 3),
    )
    def attempt_started(self, pick, how, worker):
        for stack, execution in self.runs(pick):
            if execution.started_at is None:
                execution.started_at = self.clock.now
            execution.venue = ExecutionVenue.CF if how == "cf" else ExecutionVenue.VM
            if how == "vm":
                stack.executions.attempt_started(execution, worker=worker)
            elif how == "cf":
                stack.executions.attempt_started(execution)
            else:
                stack.executions.attempt_started(
                    execution, batch=True, batch_size=worker + 2, bytes_saved=99
                )

    @precondition(lambda self: self.live())
    @rule(pick=st.integers(0, 20), seed=st.integers(1, 9), cf=st.booleans())
    def attempt_measured(self, pick, seed, cf):
        for stack, execution in self.runs(pick):
            if cf:
                execution.cf_workers = seed
                stack.executions.attempt_measured(
                    execution, stats_of(seed), stats_of(seed + 1), seed % 3
                )
            else:
                stack.executions.attempt_measured(execution, stats_of(seed))

    @precondition(lambda self: any(
        self.model.runs[q].venue is not None for q in self.live()
    ))
    @rule(
        pick=st.integers(0, 20),
        duration_s=st.sampled_from((-1.0, 0.0, 1.0, 10.0)),
        seed=st.integers(1, 9),
        shape=st.integers(0, 2),
        merge_at=st.sampled_from((None, 0.25, 0.8)),
    )
    def window_opened(self, pick, duration_s, seed, shape, merge_at):
        for stack, execution in self.runs(pick):
            if execution.venue is None:
                return
            execution.profile = profile_of_shape(shape)
            stack.window_opened(execution, duration_s, stats_of(seed), merge_at)

    @precondition(lambda self: self.live())
    @rule(pick=st.integers(0, 20), again=st.booleans())
    def cf_invoked(self, pick, again):
        """A fan-out launch — a relaunch after a failed invocation
        counts a retry first."""
        for stack, execution in self.runs(pick):
            if again:
                execution.retries += 1
            stack.executions.cf_invoked(execution)

    @precondition(lambda self: self.live())
    @rule(
        pick=st.integers(0, 20),
        status=st.sampled_from(("ok", "retry", "error")),
        seed=st.integers(1, 9),
        priced=st.booleans(),
    )
    def attempt_ended(self, pick, status, seed, priced):
        for stack, execution in self.runs(pick):
            if status == "ok":
                stack.executions.attempt_ended(
                    execution, "ok", QueryResult(None, stats_of(seed)),
                    0.002 if priced else None,
                )
            elif status == "retry":
                stack.executions.attempt_ended(
                    execution, "retry", reason="vm worker crashed"
                )
            else:
                stack.executions.attempt_ended(
                    execution, "error", error="cf invocation failed"
                )

    @precondition(lambda self: self.live())
    @rule(
        pick=st.integers(0, 20),
        outcome=st.sampled_from(("ok", "error", "cancelled", "says_cancelled")),
        seed=st.integers(1, 9),
    )
    def finished(self, pick, outcome, seed):
        """The execution's terminal transition, and the server's
        completion of it (billed, failed or cancelled in flight)."""
        for stack, execution in self.runs(pick):
            self.end(stack, execution, outcome, seed)

    # -- reads ----------------------------------------------------------------------

    @precondition(lambda self: self.stacks)
    @rule()
    def exports_agree(self):
        new, eager = (stack.obs for stack in self.stacks)
        assert new.tracer.export_all_json() == eager.tracer.eager.export_all_json() + "\n"
        for query in self.model.runs.keys() | self.model.records.keys():
            assert new.tracer.timeline(query) == eager.tracer.eager.timeline(query)
            assert entry_view(new.activity.entry(query)) == entry_view(
                eager.activity.entry(query)
            )
        assert new.journal.export_jsonl() == eager.journal.eager.export_jsonl()
        assert new.journal.dropped_captures == eager.journal.eager.dropped_captures
        assert new.activity.export_json() == eager.activity.export_json()
        assert (
            new.activity.export_projection_json()
            == eager.activity.export_projection_json()
        )
        assert new.ledger.export_jsonl() == eager.ledger.export_jsonl()
        assert new.slo.export_json() == eager.slo.export_json()
        assert new.statements.export_json() == eager.statements.export_json()
        new.metrics.collect()
        eager.metrics.collect()
        assert new.metrics.render() == eager.metrics.render()
        if self.model.guard is not None:
            new_stack, eager_stack = self.stacks
            assert new_stack.guard.export_jsonl() == eager_stack.guard.export_jsonl()
            assert new_stack.alerts == eager_stack.alerts

    def teardown(self):
        if self.stacks:
            self.exports_agree()


def final_view(entry) -> tuple | None:
    """The exec-start-known bill: the eager entry keeps the reading it
    was handed, the folded one the two atoms the log holds."""
    if isinstance(entry, eager_activity.ActivityEntry):
        final = entry.final
        return None if final is None else (final.billed_nanodollars, final.axes)
    if entry.final_nanodollars is None:
        return None
    return (entry.final_nanodollars, entry.final_axes)


def entry_view(entry) -> tuple | None:
    if entry is None:
        return None
    prior = entry.prior
    return (
        entry.query_id, entry.tenant, entry.level, entry.requested_level,
        entry.state, entry.submitted_at, entry.deadline_s, entry.admission,
        entry.venue, entry.exec_started_at, entry.exec_duration_s,
        entry.merge_at,
        None if prior is None else (prior.nanodollars, prior.time_s, prior.axes),
        final_view(entry),
        entry.estimate_nanodollars, entry.estimate_source,
        entry.actual_nanodollars, entry.actual_axes, entry.terminal_at,
        entry.detail, entry.terminal,
    )


def _coordinator() -> Coordinator:
    """A coordinator to name statements and price bills with; the stacks'
    recorders are built over their own bundles, not its."""
    return Coordinator(
        Simulator(seed=1), TurboConfig.fast(), Catalog(), ObjectStore(), "tpch"
    )


COORDINATOR = _coordinator()

TIER1 = settings(
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRecorderTransitions = RecorderTransitions.TestCase
TestRecorderTransitions.settings = TIER1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=2000)
    args = parser.parse_args()
    run_state_machine_as_test(
        RecorderTransitions,
        settings=settings(
            max_examples=args.examples,
            stateful_step_count=60,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
    print(f"{args.examples} sequences: the recorders' folds equal the eager recorder")
