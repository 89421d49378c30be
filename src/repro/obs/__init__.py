"""``repro.obs`` — end-to-end query observability.

Everything here is simulation-clock-aware and deterministic:

* :mod:`repro.obs.tracer` — per-query span trees
  (``submit → queue → dispatch → plan → scan → merge → bill``) with
  venue/cache/price attributes, exportable as byte-stable JSON timelines.
* :mod:`repro.obs.lifecycle` — the one append-only log of query
  transitions, one entry each, that the tracer, the journal and the
  activity registry fold their read-side objects from.
* :mod:`repro.obs.metrics` — a Prometheus-style registry (counters,
  gauges, histograms); the venue, storage and queue-depth series are
  derived from live component state at scrape time.
* the six *lifecycle sinks*, written only at query transitions:
  :mod:`~repro.obs.slo` (deadline compliance), :mod:`~repro.obs.statements`
  (per-fingerprint statistics), :mod:`~repro.obs.journal` (event log +
  tail capture), :mod:`~repro.obs.ledger` (integer-nanodollar meter
  events), :mod:`~repro.obs.spend` (a read-only view of per-tenant totals
  over the ledger) and :mod:`~repro.obs.activity` (live progress and bill
  projection).  Each is a store or a view over one store; none reads or
  calls another.
* :mod:`repro.obs.recorder` — the only writers of all of the above:
  :class:`~repro.obs.recorder.QueryRecorder` for the query server,
  :class:`~repro.obs.recorder.ExecutionRecorder` for the coordinator,
  one method per transition each, and the only code that reads one sink
  to write another.
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE renderer over the
  executor's per-operator profiles.

:class:`Instrumentation` bundles the eight sinks and is what the
coordinator and the query server are handed.  It carries the **one**
observability switch, :attr:`Instrumentation.enabled`: the sinks
themselves have no on/off state and no inert twins.  The default
everywhere is :meth:`Instrumentation.disabled` — eight real, empty sinks
that nothing writes, because the flag decides once, at construction,
whether a component gets a recorder or ``None``.
:meth:`Instrumentation.create` over a simulator is the one place an
observed stack is assembled (sinks, time-series store, alert engine,
scrape loop), and :data:`EXPORTS` the one table of what each exported
artifact's bytes are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.activity import (
    ActivityRegistry,
    GuardDecision,
    GuardPolicy,
    ProjectionGuard,
    ProjectionRecord,
)
from repro.obs.alerts import (
    AlertEngine,
    BurnRateRule,
    ThresholdRule,
    default_rules,
)
from repro.obs.explain import render_analyzed_plan
from repro.obs.flamegraph import render_flamegraph_svg
from repro.obs.profiler import (
    ProfileNode,
    QueryProfile,
    build_query_profile,
    render_folded,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.fingerprint import Fingerprint, fingerprint, plan_shape_hash
from repro.obs.journal import CapturePolicy, QueryJournal
from repro.obs.lifecycle import LifecycleLog
from repro.obs.ledger import MeterEvent, MeterLedger
from repro.obs.spend import SpendAccountant, budget_rules
from repro.obs.slo import SloObjective, SloRecord, SloTracker
from repro.obs.statements import StatementStore
from repro.obs.timeseries import ScrapeLoop, TimeSeriesStore
from repro.obs.tracer import ROOT, Span, Tracer
from repro.sim import Simulator

__all__ = [
    "ActivityRegistry",
    "CapturePolicy",
    "Counter",
    "EXPORTS",
    "ROOT",
    "Fingerprint",
    "Gauge",
    "GuardDecision",
    "GuardPolicy",
    "Histogram",
    "Instrumentation",
    "MeterEvent",
    "MeterLedger",
    "MetricsRegistry",
    "ProfileNode",
    "ProjectionGuard",
    "ProjectionRecord",
    "QueryJournal",
    "QueryProfile",
    "SloObjective",
    "SloRecord",
    "SloTracker",
    "Span",
    "SpendAccountant",
    "StatementStore",
    "Tracer",
    "build_query_profile",
    "fingerprint",
    "plan_shape_hash",
    "render_analyzed_plan",
    "render_flamegraph_svg",
    "render_folded",
]


@dataclass
class Instrumentation:
    """A tracer + metrics registry + SLO tracker + statement store +
    query journal + metering ledger + spend accountant + live activity
    registry threaded through the system, the one flag that says whether
    any of it is written, and — when created over a simulator — the
    scrape loop, its time-series store and the alert engine."""

    tracer: Tracer
    metrics: MetricsRegistry
    slo: SloTracker
    statements: StatementStore
    journal: QueryJournal
    ledger: MeterLedger
    spend: SpendAccountant
    activity: ActivityRegistry
    #: The lifecycle log the recorders append to and the tracer, the
    #: journal and the activity registry fold.
    log: LifecycleLog
    #: The only observability switch.  It is tested once per component,
    #: at construction, to build a recorder or hold ``None``; after that
    #: only readers use it, to tell "nothing happened" from "nothing was
    #: watching".
    enabled: bool
    #: The scraped history, the alert engine evaluated on each scrape,
    #: and the loop that drives both; ``None`` unless the bundle was
    #: created over a simulator.
    timeseries: TimeSeriesStore | None = None
    alerts: AlertEngine | None = None
    scrape_loop: ScrapeLoop | None = None

    def observed(self, export: Callable[..., str], *args: object) -> str:
        """``export(*args)`` — or ``""`` when unobserved, the read-side
        contract of every export, decided here once rather than sink by
        sink."""
        return export(*args) if self.enabled else ""

    def export(self, kind: str) -> str:
        """The exact artifact bytes of one export kind (a key of
        :data:`EXPORTS`; ``KeyError`` otherwise), ``""`` when
        unobserved."""
        return self.observed(EXPORTS[kind], self)

    def scrape(self) -> TimeSeriesStore | None:
        """Take one final scrape, so the tail of the run (after the last
        cadence tick) is in the time series, and return the store
        (``None`` without a scrape loop)."""
        if self.scrape_loop is not None:
            self.scrape_loop.scrape()
        return self.timeseries

    @staticmethod
    def disabled() -> "Instrumentation":
        """The unobserved default: eight empty sinks that are constructed
        but never written (the SLO tracker without objectives, so its
        report has no levels rather than three empty ones)."""
        ledger = MeterLedger()
        log = LifecycleLog()
        return Instrumentation(
            Tracer(log),
            MetricsRegistry(),
            SloTracker(objectives=[]),
            StatementStore(),
            QueryJournal(log=log),
            ledger,
            SpendAccountant(ledger),
            ActivityRegistry(log=log),
            log,
            enabled=False,
        )

    @staticmethod
    def create(
        clock: Callable[[], float] | None = None,
        objectives: list[SloObjective] | None = None,
        capture: CapturePolicy | None = None,
        budgets: dict[str, float] | None = None,
        sim: Simulator | None = None,
        scrape_interval_s: float = 30.0,
        alert_rules: list[BurnRateRule | ThresholdRule] | None = None,
    ) -> "Instrumentation":
        """A live bundle; pass the simulator's clock (``lambda: sim.now``)
        so span/journal timestamps are virtual and reproducible.
        ``capture`` overrides the journal's slow-query capture policy;
        ``budgets`` seeds the spend accountant's soft per-tenant budgets
        (tenant → dollars).  The tracer, the journal and the activity
        registry fold one shared lifecycle log; no lifecycle sink is
        bound to another.

        Given ``sim`` (the clock then defaults to its ``now``), the
        bundle is the whole observed stack: a time-series store, an
        alert engine over ``alert_rules`` (default
        :func:`~repro.obs.alerts.default_rules`) plus one soft-budget
        rule per tenant of ``budgets``, and a scrape loop every
        ``scrape_interval_s`` simulated seconds with the engine as its
        listener.  Build it before any coordinator, so the loop's first
        tick is scheduled ahead of theirs."""
        if clock is None and sim is not None:
            clock = lambda: sim.now  # noqa: E731
        ledger = MeterLedger(clock)
        metrics = MetricsRegistry()
        slo = SloTracker(objectives)
        log = LifecycleLog(clock)
        bundle = Instrumentation(
            Tracer(log),
            metrics,
            slo,
            StatementStore(),
            QueryJournal(capture, log),
            ledger,
            SpendAccountant(ledger, budgets),
            ActivityRegistry(clock, metrics, log),
            log,
            enabled=True,
        )
        if sim is not None:
            rules = alert_rules if alert_rules is not None else default_rules()
            bundle.timeseries = TimeSeriesStore()
            bundle.alerts = AlertEngine(
                rules=[*rules, *budget_rules(budgets or {})],
                registry=metrics,
                slo=slo,
                store=bundle.timeseries,
            )
            bundle.scrape_loop = ScrapeLoop(
                sim,
                metrics,
                bundle.timeseries,
                interval_s=scrape_interval_s,
                listeners=[bundle.alerts.evaluate],
            )
        return bundle


#: Every export kind of a bundle → its exact artifact bytes.  Readers
#: (:meth:`Instrumentation.export`, ``PixelsDB.export``,
#: ``RoverServer.export``, the bench exporters) name a kind; none wraps
#: a sink's export itself.
EXPORTS: dict[str, Callable[[Instrumentation], str]] = {
    "traces": lambda obs: obs.tracer.export_all_json(),
    "metrics": lambda obs: obs.metrics.render(),
    "statements": lambda obs: obs.statements.export_json(),
    "journal": lambda obs: obs.journal.export_jsonl(),
    "ledger": lambda obs: obs.ledger.export_jsonl(),
    "spend": lambda obs: obs.spend.export_json(),
    "slo": lambda obs: obs.slo.export_json(),
    "activity": lambda obs: obs.activity.export_json(),
    "projections": lambda obs: obs.activity.export_projection_json(),
    # Both read through the final scrape, which also evaluates the alert
    # rules, so neither read depends on whether the other came first.
    "timeseries": lambda obs: (
        obs.scrape().export_jsonl() if obs.timeseries is not None else ""
    ),
    "alerts": lambda obs: (
        obs.alerts.export_jsonl() if obs.scrape() is not None else ""
    ),
}
