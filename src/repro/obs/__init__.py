"""``repro.obs`` — end-to-end query observability.

Everything here is simulation-clock-aware and deterministic:

* :mod:`repro.obs.tracer` — per-query span trees
  (``submit → queue → dispatch → plan → scan → merge → bill``) with
  venue/cache/price attributes, exportable as byte-stable JSON timelines.
* :mod:`repro.obs.lifecycle` — the one append-only log the tracer, the
  journal and the activity registry write flat entries to and fold
  their read-side objects from.
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
from repro.obs.spend import SpendAccountant
from repro.obs.slo import SloObjective, SloRecord, SloTracker
from repro.obs.statements import StatementStore
from repro.obs.tracer import ROOT, Span, Tracer

__all__ = [
    "ActivityRegistry",
    "CapturePolicy",
    "Counter",
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
    registry threaded through the system, and the one flag that says
    whether any of it is written."""

    tracer: Tracer
    metrics: MetricsRegistry
    slo: SloTracker
    statements: StatementStore
    journal: QueryJournal
    ledger: MeterLedger
    spend: SpendAccountant
    activity: ActivityRegistry
    #: The only observability switch.  It is tested once per component,
    #: at construction, to build a recorder or hold ``None``; after that
    #: only readers use it, to tell "nothing happened" from "nothing was
    #: watching".
    enabled: bool

    def observed(self, export: Callable[..., str], *args: object) -> str:
        """``export(*args)`` of one of this bundle's sinks — or ``""``
        when unobserved, the read-side contract of every string accessor
        (``PixelsDB.ledger_jsonl()``, ``RoverServer.activity()``, …),
        decided here once rather than sink by sink."""
        return export(*args) if self.enabled else ""

    @staticmethod
    def disabled() -> "Instrumentation":
        """The unobserved default: eight empty sinks that are constructed
        but never written (the SLO tracker without objectives, so its
        report has no levels rather than three empty ones)."""
        ledger = MeterLedger()
        return Instrumentation(
            Tracer(),
            MetricsRegistry(),
            SloTracker(objectives=[]),
            StatementStore(),
            QueryJournal(),
            ledger,
            SpendAccountant(ledger),
            ActivityRegistry(),
            enabled=False,
        )

    @staticmethod
    def create(
        clock: Callable[[], float] | None = None,
        objectives: list[SloObjective] | None = None,
        capture: CapturePolicy | None = None,
        budgets: dict[str, float] | None = None,
    ) -> "Instrumentation":
        """A live bundle; pass the simulator's clock (``lambda: sim.now``)
        so span/journal timestamps are virtual and reproducible.
        ``capture`` overrides the journal's slow-query capture policy;
        ``budgets`` seeds the spend accountant's soft per-tenant budgets
        (tenant → dollars).  Only constructors run here: no sink is
        bound to another; the tracer, the journal and the activity
        registry write one shared lifecycle log."""
        ledger = MeterLedger(clock)
        metrics = MetricsRegistry()
        log = LifecycleLog()
        return Instrumentation(
            Tracer(clock, log),
            metrics,
            SloTracker(objectives),
            StatementStore(),
            QueryJournal(clock, capture, log),
            ledger,
            SpendAccountant(ledger, budgets),
            ActivityRegistry(clock, metrics, log),
            enabled=True,
        )
