"""The tracer, the journal and the activity registry read as folds of the
lifecycle log equal the eager sinks they replaced.

A Hypothesis state machine drives recorder-shaped call sequences — spans
with implicit, explicit, by-name and ``ROOT`` parents, finishes by id
and by newest name, instants, ``set`` and ``end_open``, journal rows
before and after the root span closes — through one log shared by the
new :class:`~repro.obs.Tracer` and :class:`~repro.obs.QueryJournal`, and
through the eager classes they replaced (``tests/eager_tracer.py`` and
``tests/eager_journal.py``, kept verbatim).  At random points every read
is compared: ``export_all_json``, each trace's ``timeline``, ``last`` and
``open_spans``, and the journal's ``export_jsonl``.

As in the recorders, a trace's root is its ``query`` span, the only span
started with ``parent=ROOT``, and a row labelled "while open" carries
the root's span id and fingerprint only while the root is open.

A second machine drives activity transitions — submissions with and
without a prior, queueing, dispatch, downgrades, execution windows with
and without a known final bill and an operator profile, every terminal
state, repeats on terminal and unknown queries — through the
:class:`~repro.obs.ActivityRegistry` and its
:class:`~repro.obs.activity.ProjectionGuard`, and through the eager
registry and guard they replaced (``tests/eager_activity.py``, kept
verbatim), whose downgrade and cancel actions write back into the
registry mid-decision as the query server's do.  Snapshots, projection
reports, one-query entries, the gauges' exposition, the guard's audit
log and its alerts are compared.

Tier-1 runs a small derandomized budget.  The long profile::

    PYTHONPATH=src python -m tests.test_lifecycle_folds --examples 3000
"""

from __future__ import annotations

import argparse

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engine.executor import OperatorProfile
from repro.obs import ROOT, ActivityRegistry, QueryJournal, Tracer
from repro.obs.activity import GuardPolicy, ProjectionGuard
from repro.obs.lifecycle import LifecycleLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import AXES
from repro.turbo.cost import MeterReading
from tests import eager_activity, eager_journal, eager_tracer

TRACES = ("q0", "q1", "q2")
NAMES = ("queue", "execute", "scan", "cf_invoke")
STATUSES = ("ok", "error", "retry", "cancelled")
ATTRIBUTES = st.dictionaries(
    st.sampled_from(("venue", "reason", "bytes", "share", "error")),
    st.one_of(st.integers(-3, 3), st.sampled_from(("a", "b")), st.none(),
              st.floats(0, 2, allow_nan=False)),
    max_size=3,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span_view(span) -> tuple | None:
    if span is None:
        return None
    return (
        span.span_id, span.trace_id, span.name, span.start, span.parent_id,
        span.end, span.status, dict(span.attributes),
    )


class LifecycleFolds(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        log = LifecycleLog()
        self.tracer = Tracer(self.clock, log)
        self.journal = QueryJournal(self.clock, log=log)
        self.eager = eager_tracer.Tracer(self.clock)
        self.eager_journal = eager_journal.QueryJournal(self.clock)
        #: Every span the eager tracer started, by id (ids match: both
        #: count one per span).
        self.spans: list = []

    # -- writes ---------------------------------------------------------------

    @rule(seconds=st.sampled_from((0.0, 0.25, 1.0, 7.5)))
    def tick(self, seconds):
        self.clock.now += seconds

    def _parent(self, trace: str, how: str, pick: int):
        """(new tracer's parent, eager tracer's parent)."""
        if how == "explicit" and self.spans:
            span = self.spans[pick % len(self.spans)]
            return span.span_id, span
        if how in NAMES:
            return how, self.eager.last(trace, how)
        return None, None

    @rule(
        trace=st.sampled_from(TRACES),
        name=st.sampled_from(NAMES),
        how=st.sampled_from(("implicit", "explicit", *NAMES)),
        pick=st.integers(0, 50),
        attributes=ATTRIBUTES,
    )
    def start(self, trace, name, how, pick, attributes):
        parent, eager_parent = self._parent(trace, how, pick)
        span_id = self.tracer.start(trace, name, parent=parent, **attributes)
        span = self.eager.start(trace, name, parent=eager_parent, **attributes)
        assert span_id == span.span_id
        self.spans.append(span)

    @rule(trace=st.sampled_from(TRACES), attributes=ATTRIBUTES)
    def start_root(self, trace, attributes):
        span_id = self.tracer.start(trace, "query", parent=ROOT, **attributes)
        span = self.eager.start(
            trace, "query", parent=eager_tracer.ROOT, **attributes
        )
        assert span_id == span.span_id
        self.spans.append(span)

    @rule(
        trace=st.sampled_from(TRACES),
        name=st.sampled_from(NAMES),
        how=st.sampled_from(("implicit", "explicit", *NAMES)),
        pick=st.integers(0, 50),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def instant(self, trace, name, how, pick, status, attributes):
        parent, eager_parent = self._parent(trace, how, pick)
        self.tracer.instant(
            trace, name, parent=parent, status=status, **attributes
        )
        span = self.eager.start(trace, name, parent=eager_parent, **attributes)
        span.finish(status)
        self.spans.append(span)

    @precondition(lambda self: self.spans)
    @rule(
        pick=st.integers(0, 50),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def finish_by_id(self, pick, status, attributes):
        span = self.spans[pick % len(self.spans)]
        self.tracer.finish(span.trace_id, span.span_id, status, **attributes)
        span.finish(status, **attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        name=st.sampled_from((*NAMES, "query")),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def finish_newest(self, trace, name, status, attributes):
        self.tracer.finish(trace, name, status, **attributes)
        span = self.eager.last(trace, name)
        if span is not None:
            span.finish(status, **attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        ref=st.one_of(st.sampled_from(NAMES), st.integers(0, 50)),
        attributes=ATTRIBUTES,
    )
    def set(self, trace, ref, attributes):
        if isinstance(ref, int):
            owned = [s for s in self.spans if s.trace_id == trace]
            if not owned:
                return
            span = owned[ref % len(owned)]
            self.tracer.set(trace, span.span_id, **attributes)
        else:
            self.tracer.set(trace, ref, **attributes)
            span = self.eager.last(trace, ref)
        if span is not None:
            span.set(**attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def end_open(self, trace, status, attributes):
        self.tracer.end_open(trace, status, **attributes)
        self.eager.end_open(trace, status, **attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        event=st.sampled_from(("submit", "queue", "finish", "guard")),
        label=st.sampled_from(("explicit", "while_open", "root")),
        level=st.sampled_from((None, "relaxed")),
        attributes=ATTRIBUTES,
    )
    def journal_row(self, trace, event, label, level, attributes):
        root = self.eager.last(trace, "query")
        if label == "explicit" or root is None:
            span_id, fingerprint = len(self.spans), "fp-explicit"
            self.journal.event(
                event, trace, span_id=span_id, fingerprint=fingerprint,
                level=level, **attributes,
            )
        else:
            open_ = label == "root" or root.end is None
            span_id = root.span_id if open_ else None
            fingerprint = "fp-" + trace if open_ else None
            self.journal.event(
                event, trace, span_id=ROOT, fingerprint="fp-" + trace,
                level=level, while_open=label == "while_open", **attributes,
            )
        self.eager_journal.event(
            event, trace, span_id=span_id, fingerprint=fingerprint,
            level=level, **attributes,
        )

    # -- reads ----------------------------------------------------------------

    @invariant()
    def reads_agree(self):
        for trace in TRACES:
            for name in (*NAMES, "query"):
                assert span_view(self.tracer.last(trace, name)) == span_view(
                    self.eager.last(trace, name)
                )
            assert [span_view(s) for s in self.tracer.open_spans(trace)] == [
                span_view(s) for s in self.eager.open_spans(trace)
            ]
            root = self.eager.last(trace, "query")
            assert self.tracer.root(trace) == (
                root.span_id if root is not None else None
            )

    @rule()
    def exports_agree(self):
        assert self.tracer.trace_ids() == self.eager.trace_ids()
        for trace in TRACES:
            assert self.tracer.timeline(trace) == self.eager.timeline(trace)
        # The sink ends its export in a newline; the eager copy predates that.
        assert self.tracer.export_all_json() == self.eager.export_all_json() + "\n"
        assert self.journal.export_jsonl() == self.eager_journal.export_jsonl()

    def teardown(self):
        self.exports_agree()


QUERIES = ("a0", "a1", "a2")
LEVELS = ("immediate", "relaxed", "best_effort")
PRIORS = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 2_000),
        st.sampled_from((0.0, 0.5, 3.0)),
        st.tuples(*(st.integers(0, 500) for _ in AXES)),
    ),
)
AXIS_VALUES = st.one_of(
    st.none(), st.tuples(*(st.integers(0, 500) for _ in AXES))
)


def eager_prior(prior: tuple | None):
    if prior is None:
        return None
    return eager_activity.Prior(prior[0], prior[1], dict(zip(AXES, prior[2])))


def profile_of(shape: int) -> OperatorProfile | None:
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
        name="HashJoin", rows_out=4, time_s=2.5, self_time_s=1.0,
        children=scans,
    )
    return OperatorProfile(
        name="Aggregate", rows_out=1, time_s=4.0, self_time_s=1.5,
        children=[join],
    )


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


class FakeSpend:
    """The two reads the guard makes of a spend accountant."""

    def __init__(self) -> None:
        self.spent = {"acme": 0, "beta": 0}

    def budgets(self) -> dict[str, float]:
        return {"acme": 1e-6}

    def tenant_nanodollars(self, tenant: str) -> int:
        return self.spent.get(tenant, 0)


class ActivityFolds(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.spend = FakeSpend()
        self.metrics = MetricsRegistry()
        self.eager_metrics = MetricsRegistry()
        self.activity = ActivityRegistry(self.clock, self.metrics)
        self.eager = eager_activity.ActivityRegistry(
            self.clock, self.eager_metrics
        )
        self.alerts: list = []
        self.eager_alerts: list = []
        self.guard = self.eager_guard = None

    @initialize(
        budget_action=st.sampled_from((None, *eager_activity.GUARD_ACTIONS)),
        deadline_action=st.sampled_from((None, *eager_activity.GUARD_ACTIONS)),
    )
    def guards(self, budget_action, deadline_action):
        # Each guard acts on its own registry, as the query server's
        # downgrade and cancel paths act on the server's one registry.
        def actions(registry):
            def downgrade(query_id, reason):
                registry.downgrade(
                    query_id, "best_effort", reason, deadline_s=None, prior=None
                )
                return True

            def cancel(query_id):
                registry.finish_cancelled(query_id, "guard")
                return True

            return {"downgrader": downgrade, "canceller": cancel}

        self.guard = ProjectionGuard(
            GuardPolicy(budget_action, deadline_action),
            self.activity,
            self.spend,
            alert_sink=self.alerts.append,
            **actions(self.activity),
        )
        self.eager_guard = eager_activity.ProjectionGuard(
            eager_activity.GuardPolicy(budget_action, deadline_action),
            self.eager,
            self.spend,
            alert_sink=self.eager_alerts.append,
            **actions(self.eager),
        )

    # -- writes ---------------------------------------------------------------

    @rule(seconds=st.sampled_from((0.0, 0.5, 2.0, 30.0)))
    def tick(self, seconds):
        """The scheduler tick: the clock moves and the guard evaluates."""
        self.clock.now += seconds
        self.guard_tick()

    @rule(
        query=st.sampled_from(QUERIES),
        tenant=st.sampled_from(("acme", "beta")),
        level=st.sampled_from(LEVELS),
        requested=st.sampled_from(LEVELS),
        deadline_s=st.sampled_from((None, 1.0, 60.0)),
        admission=st.sampled_from(("admit", "downgrade")),
        prior=PRIORS,
    )
    def begin(self, query, tenant, level, requested, deadline_s, admission, prior):
        self.activity.begin(
            query, tenant=tenant, level=level, requested_level=requested,
            deadline_s=deadline_s, admission=admission, prior=prior,
        )
        self.eager.begin(
            query, tenant=tenant, level=level, requested_level=requested,
            deadline_s=deadline_s, admission=admission,
            prior=eager_prior(prior),
        )

    @rule(
        query=st.sampled_from(QUERIES),
        tenant=st.sampled_from(("acme", "beta")),
        prior=PRIORS,
    )
    def hold(self, query, tenant, prior):
        """A relaxed submission held at once (the fleet's common case)."""
        self.begin(query, tenant, "relaxed", "relaxed", 60.0, "admit", prior)
        self.mark(query, queued=True)

    @rule(query=st.sampled_from(QUERIES), queued=st.booleans())
    def mark(self, query, queued):
        if queued:
            self.activity.mark_queued(query)
            self.eager.mark_queued(query)
        else:
            self.activity.mark_dispatched(query)
            self.eager.mark_dispatched(query)

    @rule(
        query=st.sampled_from(QUERIES),
        deadline_s=st.sampled_from((None, 5.0)),
        prior=PRIORS,
    )
    def downgrade(self, query, deadline_s, prior):
        self.activity.downgrade(
            query, "best_effort", "admission", deadline_s=deadline_s,
            prior=prior,
        )
        self.eager.downgrade(
            query, "best_effort", "admission", deadline_s=deadline_s,
            prior=eager_prior(prior),
        )

    @rule(
        query=st.sampled_from(QUERIES),
        venue=st.sampled_from(("vm", "cf")),
        duration_s=st.sampled_from((-1.0, 0.0, 1.0, 10.0)),
        shape=st.integers(0, 2),
        final=st.one_of(
            st.none(), st.tuples(*(st.integers(0, 900) for _ in AXES))
        ),
        merge_at=st.sampled_from((None, 0.25, 0.8)),
    )
    def begin_execution(self, query, venue, duration_s, shape, final, merge_at):
        for registry in (self.activity, self.eager):
            # Each gets its own reading and profile (the eager one keeps
            # the objects it is handed).
            registry.begin_execution(
                query,
                venue=venue,
                duration_s=duration_s,
                profile=profile_of(shape),
                final=(
                    MeterReading(0.0, sum(final), dict(zip(AXES, final)))
                    if final is not None
                    else None
                ),
                merge_at=merge_at,
            )

    @rule(
        query=st.sampled_from(QUERIES),
        nanodollars=st.integers(0, 3_000),
        axes=AXIS_VALUES,
    )
    def finish_billed(self, query, nanodollars, axes):
        axes = dict(zip(AXES, axes)) if axes is not None else None
        record = self.activity.finish_billed(query, nanodollars, axes)
        eager = self.eager.finish_billed(query, nanodollars, axes)
        assert (record and record.to_dict()) == (eager and eager.to_dict())

    @rule(
        query=st.sampled_from(QUERIES),
        how=st.sampled_from(("cancelled", "failed", "rejected")),
        detail=st.sampled_from((None, "why")),
    )
    def finish(self, query, how, detail):
        for registry in (self.activity, self.eager):
            getattr(registry, "finish_" + how)(query, detail or how)

    @rule(
        tenant=st.sampled_from(("acme", "beta")),
        nanodollars=st.integers(0, 1_500),
    )
    def spend_moves(self, tenant, nanodollars):
        self.spend.spent[tenant] = nanodollars

    def guard_tick(self):
        decisions = self.guard.evaluate(self.clock.now)
        eager = self.eager_guard.evaluate(self.clock.now)
        assert [d.to_dict() for d in decisions] == [d.to_dict() for d in eager]

    # -- reads ----------------------------------------------------------------

    @invariant()
    def entries_agree(self):
        for query in QUERIES:
            assert self.activity.knows(query) == (
                self.eager.entry(query) is not None
            )
            assert entry_view(self.activity.entry(query)) == entry_view(
                self.eager.entry(query)
            )

    @rule()
    def exports_agree(self):
        assert self.activity.export_json() == self.eager.export_json()
        assert (
            self.activity.export_projection_json()
            == self.eager.export_projection_json()
        )
        assert [entry_view(e) for e in self.activity.live_entries()] == [
            entry_view(e) for e in self.eager.live_entries()
        ]
        self.metrics.collect()
        self.eager_metrics.collect()
        assert self.metrics.render() == self.eager_metrics.render()
        if self.guard is not None:
            assert self.guard.export_jsonl() == self.eager_guard.export_jsonl()
            assert self.alerts == self.eager_alerts

    def teardown(self):
        self.exports_agree()


TIER1 = settings(
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLifecycleFolds = LifecycleFolds.TestCase
TestLifecycleFolds.settings = TIER1
TestActivityFolds = ActivityFolds.TestCase
TestActivityFolds.settings = TIER1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=3000)
    args = parser.parse_args()
    for machine in (LifecycleFolds, ActivityFolds):
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=args.examples,
                stateful_step_count=60,
                database=None,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )
    print(f"{args.examples} sequences: the folds equal the eager sinks")
