"""The folds the tracer, the journal and the activity registry read the
lifecycle log through equal the eager sinks they replaced, fed directly.

``tests/test_recorder_oracle.py`` drives the recorders, so it only ever
feeds the folds what a recorder writes.  The machines here feed each
fold its own input, in orders no recorder produces.

The first machine drives span and journal-row facts — spans with
implicit, explicit, by-name and ``ROOT`` parents, finishes by id and by
newest name, instants, ``set`` and ``end_open``, rows before and after
the root span closes — through :class:`~repro.obs.tracer.SpanFold` and
the journal's rendering of each row against the span state at its
place (as :class:`~repro.obs.QueryJournal` folds a replay), and through
the eager classes they replaced (``tests/eager_tracer.py`` and
``tests/eager_journal.py``, kept verbatim).  At random points every
span, each trace's root and timeline, and the journal's rows are
compared.

As in the recorders, a trace's root is its ``query`` span, the only span
started with ``parent=ROOT``, and a row labelled "while open" carries
the root's span id and fingerprint only while the root is open.

The second machine appends activity transitions to a
:class:`~repro.obs.lifecycle.LifecycleLog` — submissions with and
without a prior, queueing, dispatch, held downgrades, execution windows
with and without an operator profile, every terminal state, transitions
only the tracer and journal read, and repeats on terminal and unknown
queries — read by an :class:`~repro.obs.ActivityRegistry` and its
:class:`~repro.obs.activity.ProjectionGuard`, and makes the matching
calls on the eager registry and guard they replaced
(``tests/eager_activity.py``, kept verbatim).  Each guard's downgrade
and cancel actions write back mid-decision, as the query server's do:
the new one by appending to the log its registry reads.  One-query
entries, the shared fold's entries, snapshots, projection reports, the
gauges' exposition, the guard's audit log and its alerts are compared.

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
from repro.obs.lifecycle import (
    CANCEL,
    COMPLETE,
    DISPATCH,
    DOWNGRADE,
    END_OPEN,
    FAIL,
    FINISH,
    GUARD,
    INSTANT,
    PLAN,
    QUEUE,
    REJECT,
    ROW,
    SET,
    START,
    SUBMIT,
    VM_QUEUE,
    WINDOW,
    LifecycleLog,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import AXES
from repro.obs.recorder import _flatten_operators
from repro.obs.tracer import SpanFold
from repro.turbo.cost import MeterReading
from tests import eager_activity, eager_journal, eager_tracer
from tests.test_recorder_oracle import entry_view

TRACES = ("q0", "q1")
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


def span_view(span) -> tuple:
    return (
        span.span_id, span.trace_id, span.name, span.start, span.parent_id,
        span.end, span.status, dict(span.attributes),
    )


class FactFold:
    """What the tracer and the journal fold out of a replay's facts: the
    spans, and each row rendered against the spans as they stand at its
    place."""

    def __init__(self) -> None:
        self.spans = SpanFold()
        self.rows: list[dict] = []

    def apply(self, fact: tuple) -> None:
        if fact[0] == ROW:
            self.rows.append(QueryJournal._record(fact, self.spans))
        else:
            self.spans.apply(fact)


class LifecycleFolds(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = FakeClock()
        self.fold = FactFold()
        self.eager = eager_tracer.Tracer(self.clock)
        self.eager_journal = eager_journal.QueryJournal(self.clock)
        #: Every span the eager tracer started; each fact carries its id.
        self.spans: list = []

    # -- facts ------------------------------------------------------------------

    @rule(seconds=st.sampled_from((0.0, 0.25, 1.0, 7.5)))
    def tick(self, seconds):
        self.clock.now += seconds

    def _parent(self, trace: str, how: str, pick: int):
        """(the fact's parent, the eager tracer's parent)."""
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
        span = self.eager.start(trace, name, parent=eager_parent, **attributes)
        self.fold.apply(
            (START, trace, span.span_id, name, self.clock.now, parent,
             dict(attributes))
        )
        self.spans.append(span)

    @rule(trace=st.sampled_from(TRACES), attributes=ATTRIBUTES)
    def start_root(self, trace, attributes):
        span = self.eager.start(
            trace, "query", parent=eager_tracer.ROOT, **attributes
        )
        self.fold.apply(
            (START, trace, span.span_id, "query", self.clock.now, ROOT,
             dict(attributes))
        )
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
        span = self.eager.start(trace, name, parent=eager_parent, **attributes)
        span.finish(status)
        self.fold.apply(
            (INSTANT, trace, span.span_id, name, self.clock.now, parent,
             dict(attributes), status)
        )
        self.spans.append(span)

    @precondition(lambda self: self.spans)
    @rule(
        pick=st.integers(0, 50),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def finish_by_id(self, pick, status, attributes):
        span = self.spans[pick % len(self.spans)]
        self.fold.apply(
            (FINISH, span.trace_id, span.span_id, self.clock.now, status,
             dict(attributes))
        )
        span.finish(status, **attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        name=st.sampled_from((*NAMES, "query")),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def finish_newest(self, trace, name, status, attributes):
        self.fold.apply(
            (FINISH, trace, name, self.clock.now, status, dict(attributes))
        )
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
            self.fold.apply((SET, trace, span.span_id, dict(attributes)))
        else:
            self.fold.apply((SET, trace, ref, dict(attributes)))
            span = self.eager.last(trace, ref)
        if span is not None:
            span.set(**attributes)

    @rule(
        trace=st.sampled_from(TRACES),
        status=st.sampled_from(STATUSES),
        attributes=ATTRIBUTES,
    )
    def end_open(self, trace, status, attributes):
        self.fold.apply((END_OPEN, trace, self.clock.now, status, dict(attributes)))
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
            self.fold.apply(
                (ROW, trace, self.clock.now, event, span_id, fingerprint,
                 level, False, dict(attributes))
            )
        else:
            open_ = label == "root" or root.end is None
            span_id = root.span_id if open_ else None
            fingerprint = "fp-" + trace if open_ else None
            self.fold.apply(
                (ROW, trace, self.clock.now, event, ROOT, "fp-" + trace,
                 level, label == "while_open", dict(attributes))
            )
        self.eager_journal.event(
            event, trace, span_id=span_id, fingerprint=fingerprint,
            level=level, **attributes,
        )

    # -- reads ----------------------------------------------------------------

    @invariant()
    def folds_agree(self):
        assert self.fold.rows == self.eager_journal.records()
        folded = self.fold.spans
        for trace in TRACES:
            assert [span_view(s) for s in folded.spans.get(trace, [])] == [
                span_view(s) for s in self.eager.spans(trace)
            ]
            root = self.eager.last(trace, "query")
            assert folded.roots.get(trace) == (
                root.span_id if root is not None else None
            )

    @rule()
    def exports_agree(self):
        traces = self.fold.spans.spans
        assert sorted(traces) == self.eager.trace_ids()
        for trace in TRACES:
            assert Tracer.render(trace, traces.get(trace, [])) == (
                self.eager.timeline(trace)
            )

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
FP = "fp-activity"


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
        self.log = LifecycleLog(self.clock)
        self.activity = ActivityRegistry(self.clock, self.metrics, log=self.log)
        self.eager = eager_activity.ActivityRegistry(
            self.clock, self.eager_metrics
        )
        self.alerts: list = []
        self.eager_alerts: list = []
        self.guard = self.eager_guard = None

    def append(self, query: str, kind: str, *fields: object) -> None:
        """One transition of ``query``."""
        self.log.append(query, kind, *fields)

    def held_downgrade(self, query, reason, deadline_s, prior) -> None:
        self.append(
            query, DOWNGRADE, "best_effort", FP, reason, "relaxed", True, 0.0,
            deadline_s, prior,
        )

    def cancel_held(self, query) -> None:
        self.append(query, CANCEL, "relaxed", FP, 0.0)

    def complete(self, query, error=None, cancelled=False, nanodollars=None,
                 axes=None) -> None:
        """The server's completion: billed when ``nanodollars`` is given."""
        self.append(
            query, COMPLETE, "relaxed", FP, None, error, cancelled, "vm",
            1.0, None, None, None, 0.0, 5.0, 1.0, 0, 0, None, nanodollars,
            axes, None, False, None,
        )

    @initialize(
        budget_action=st.sampled_from((None, *eager_activity.GUARD_ACTIONS)),
        deadline_action=st.sampled_from((None, *eager_activity.GUARD_ACTIONS)),
    )
    def guards(self, budget_action, deadline_action):
        # Each guard acts through its own stack, as the query server's
        # downgrade and cancel paths act on a held query.
        def downgrade(query_id, reason):
            self.held_downgrade(query_id, reason, None, None)
            return True

        def cancel(query_id):
            self.cancel_held(query_id)
            return True

        def eager_downgrade(query_id, reason):
            self.eager.downgrade(
                query_id, "best_effort", reason, deadline_s=None, prior=None
            )
            return True

        def eager_cancel(query_id):
            self.eager.finish_cancelled(query_id, "cancelled_held")
            return True

        self.guard = ProjectionGuard(
            GuardPolicy(budget_action, deadline_action),
            self.activity,
            self.spend,
            alert_sink=self.alerts.append,
            downgrader=downgrade,
            canceller=cancel,
        )
        self.eager_guard = eager_activity.ProjectionGuard(
            eager_activity.GuardPolicy(budget_action, deadline_action),
            self.eager,
            self.spend,
            alert_sink=self.eager_alerts.append,
            downgrader=eager_downgrade,
            canceller=eager_cancel,
        )

    # -- transitions --------------------------------------------------------------

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
        self.append(
            query, SUBMIT, level, requested, tenant, deadline_s, 5.0, 1.0, FP,
            "SELECT 1", admission, prior,
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
            self.append(query, QUEUE, "relaxed", FP, "above_high_watermark", 0.5, 1.0)
            self.eager.mark_queued(query)
        else:
            self.append(query, DISPATCH, "relaxed", FP, 0.0, False)
            self.eager.mark_dispatched(query)

    @rule(
        query=st.sampled_from(QUERIES),
        deadline_s=st.sampled_from((None, 5.0)),
        prior=PRIORS,
    )
    def downgrade(self, query, deadline_s, prior):
        self.held_downgrade(query, "admission", deadline_s, prior)
        self.eager.downgrade(
            query, "best_effort", "admission", deadline_s=deadline_s,
            prior=eager_prior(prior),
        )

    @rule(
        query=st.sampled_from(QUERIES),
        kind=st.sampled_from((PLAN, VM_QUEUE, GUARD, FAIL, "admission")),
    )
    def unread(self, query, kind):
        """A transition that changes no activity entry: the tracer and
        journal read it, or (an admission downgrade) the submission
        already carries it."""
        fields = {
            PLAN: (None, False),
            VM_QUEUE: (),
            GUARD: ("relaxed", FP, "deadline", "alert", False, "late"),
            FAIL: ("error", "engine error"),
            "admission": ("best_effort", FP, "pressure", "relaxed", False, 0.0,
                          None, None),
        }[kind]
        self.append(query, DOWNGRADE if kind == "admission" else kind, *fields)

    @rule(
        query=st.sampled_from(QUERIES),
        venue=st.sampled_from(("vm", "cf")),
        duration_s=st.sampled_from((-1.0, 0.0, 1.0, 10.0)),
        shape=st.integers(0, 2),
        final=st.tuples(*(st.integers(0, 900) for _ in AXES)),
        merge_at=st.sampled_from((None, 0.25, 0.8)),
    )
    def begin_execution(self, query, venue, duration_s, shape, final, merge_at):
        # The log holds the window as the execution recorder writes it:
        # clamped, its operators flattened, its bill as atoms.
        profile = profile_of(shape)
        self.append(
            query, WINDOW, venue, max(0.0, duration_s),
            _flatten_operators(profile) if profile is not None else (),
            sum(final), final, merge_at,
        )
        self.eager.begin_execution(
            query,
            venue=venue,
            duration_s=duration_s,
            profile=profile_of(shape),
            final=MeterReading(0.0, sum(final), dict(zip(AXES, final))),
            merge_at=merge_at,
        )

    @rule(
        query=st.sampled_from(QUERIES),
        nanodollars=st.integers(0, 3_000),
        axes=AXIS_VALUES,
    )
    def finish_billed(self, query, nanodollars, axes):
        self.complete(query, nanodollars=nanodollars, axes=axes)
        self.eager.finish_billed(
            query, nanodollars, dict(zip(AXES, axes)) if axes is not None else None
        )

    @rule(
        query=st.sampled_from(QUERIES),
        how=st.sampled_from(("cancelled", "held", "failed", "rejected")),
        detail=st.sampled_from((None, "why")),
    )
    def finish(self, query, how, detail):
        if how == "cancelled":
            self.complete(query, error="cancelled by user", cancelled=True)
            self.eager.finish_cancelled(query, "cancelled")
        elif how == "held":
            self.cancel_held(query)
            self.eager.finish_cancelled(query, "cancelled_held")
        elif how == "failed":
            self.complete(query, error=detail or how)
            self.eager.finish_failed(query, detail or how)
        else:
            self.append(query, REJECT, "relaxed", FP, "refused", detail or how)
            self.eager.finish_rejected(query, detail or how)

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
            assert entry_view(self.activity.entry(query)) == entry_view(
                self.eager.entry(query)
            )
        assert [entry_view(e) for e in self.activity.entries()] == [
            entry_view(e) for e in self.eager.entries()
        ]

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
