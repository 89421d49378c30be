"""PixelsDB reproduction: serverless, NL-aided analytics with flexible
service levels and prices (ICDE 2025).

The package layers, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.storage` — S3-like object store, Pixels columnar format,
  metadata catalog.
* :mod:`repro.engine` — vectorized SQL engine (lexer → parser → binder →
  planner → optimizer → executor).
* :mod:`repro.turbo` — Pixels-Turbo: coordinator, watermark-autoscaled VM
  cluster, cloud-function service, CF plan splitting, cost model.
* :mod:`repro.core` — the paper's contribution: three service levels with
  admission rules and $/TB prices, implemented by the Query Server.
* :mod:`repro.nl2sql` — the CodeS-analogue text-to-SQL service.
* :mod:`repro.rover` — the Pixels-Rover UI backend.
* :mod:`repro.workloads` / :mod:`repro.baselines` — datasets, arrival
  processes, and the comparison engines used by the benchmark harness.

:class:`PixelsDB` below wires all of it together for interactive use::

    from repro import PixelsDB, ServiceLevel

    db = PixelsDB()
    db.load_tpch("tpch", scale=0.1)
    sql = db.ask("tpch", "top 5 customers by account balance")
    query = db.submit("tpch", sql, ServiceLevel.RELAXED)
    db.run_to_completion()
    print(query.result_rows(), f"${query.price:.6f}")
"""

from __future__ import annotations

from itertools import count

from repro.core import QueryServer, QueryStatus, ServerQuery, ServiceLevel
from repro.errors import PixelsError, TranslationError
from repro.nl2sql import CodesService
from repro.obs import CapturePolicy, GuardPolicy, Instrumentation
from repro.obs.alerts import AlertEngine, BurnRateRule, ThresholdRule, default_rules
from repro.obs.dashboard import (
    DashboardData,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.obs.timeseries import ScrapeLoop, TimeSeriesStore
from repro.rover import RoverServer, UserStore
from repro.sim import Simulator
from repro.storage import BufferPool, CacheConfig, Catalog, ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.workloads import LogsGenerator, TpchGenerator, load_dataset
from repro.workloads.tpch import TpchTable

__version__ = "1.0.0"

__all__ = [
    "AlertEngine",
    "BufferPool",
    "BurnRateRule",
    "CacheConfig",
    "CapturePolicy",
    "Catalog",
    "CodesService",
    "Coordinator",
    "DashboardData",
    "GuardPolicy",
    "Instrumentation",
    "ObjectStore",
    "PixelsDB",
    "PixelsError",
    "QueryServer",
    "QueryStatus",
    "RoverServer",
    "ScrapeLoop",
    "ServerQuery",
    "ServiceLevel",
    "Simulator",
    "ThresholdRule",
    "TimeSeriesStore",
    "TurboConfig",
    "UserStore",
    "__version__",
    "default_rules",
    "render_dashboard_html",
    "render_dashboard_text",
]


class PixelsDB:
    """One-stop façade over the whole system.

    Owns a simulator, an object store, a catalog, and — lazily, one per
    database schema — a Coordinator + QueryServer pair.  Time is simulated:
    after submitting queries, advance it with :meth:`run` or
    :meth:`run_to_completion`.
    """

    def __init__(
        self,
        config: TurboConfig | None = None,
        seed: int = 0,
        observe: bool = False,
        scrape_interval_s: float = 30.0,
        alert_rules: list[BurnRateRule | ThresholdRule] | None = None,
        capture: CapturePolicy | None = None,
        tenant_budgets: dict[str, float] | None = None,
        guard: GuardPolicy | None = None,
    ) -> None:
        """``observe=True`` switches on the full observability stack
        (:mod:`repro.obs`): tracer, metrics registry, SLO tracker,
        statement statistics, the query journal, a scrape loop
        snapshotting metrics every ``scrape_interval_s`` simulated
        seconds, and the burn-rate alert engine.  ``capture`` tunes the
        journal's tail-based slow-query capture policy (defaults to
        :class:`~repro.obs.CapturePolicy`'s defaults).  ``tenant_budgets``
        maps tenant → soft budget dollars: crossing one never blocks a
        query, it raises a ``TenantBudget:<tenant>`` alert through the
        alert engine and flags the tenant in the spend report.
        ``guard`` (a :class:`~repro.obs.GuardPolicy`, requires
        ``observe=True``) arms the projection guard: each server holds
        live bill/deadline projections against tenant budgets and
        service-level deadlines on its scheduler tick, alerting — and,
        opt-in, downgrading or cancelling — with every decision
        audit-logged (:meth:`guard_audit`).  ``alert_rules``,
        ``capture``, ``tenant_budgets`` and ``guard`` only act on an
        observed stack: passing one with ``observe=False`` raises
        ``ValueError``.  The default is the
        unobserved bundle (:meth:`Instrumentation.disabled`) — query
        results and billed prices are identical either way."""
        if not observe:
            for name, value in (
                ("alert_rules", alert_rules),
                ("capture", capture),
                ("tenant_budgets", tenant_budgets),
                ("guard", guard),
            ):
                if value is not None:
                    raise ValueError(f"{name}= needs observe=True")
        self.config = config if config is not None else TurboConfig()
        self.seed = seed
        self.sim = Simulator(seed=seed)
        self.store = ObjectStore()
        self.catalog = Catalog()
        self.codes = CodesService()
        self._coordinators: dict[str, Coordinator] = {}
        self._servers: dict[str, QueryServer] = {}
        # One id sequence for every schema's server: the observability
        # bundle is shared, so ``sq-N`` must be unique per db.
        self._query_ids = count(1)
        self.timeseries: TimeSeriesStore | None = None
        self.alerts: AlertEngine | None = None
        self.scrape_loop: ScrapeLoop | None = None
        self._guard_policy = guard
        if observe:
            self.obs = Instrumentation.create(
                clock=lambda: self.sim.now,
                capture=capture,
                budgets=tenant_budgets,
            )
            self.timeseries = TimeSeriesStore()
            rules = list(
                alert_rules if alert_rules is not None else default_rules()
            )
            if tenant_budgets:
                from repro.obs.spend import budget_rules

                rules.extend(budget_rules(tenant_budgets))
            self.alerts = AlertEngine(
                rules=rules,
                registry=self.obs.metrics,
                slo=self.obs.slo,
                store=self.timeseries,
            )
            self.scrape_loop = ScrapeLoop(
                self.sim,
                self.obs.metrics,
                self.timeseries,
                interval_s=scrape_interval_s,
                listeners=[self.alerts.evaluate],
            )
        else:
            self.obs = Instrumentation.disabled()

    # -- data loading -------------------------------------------------------------

    def load_tpch(self, schema: str, scale: float = 0.05, seed: int = 42) -> None:
        """Generate and load a TPC-H-style dataset under ``schema``."""
        load_dataset(
            self.store,
            self.catalog,
            schema,
            TpchGenerator(scale=scale, seed=seed).tables(),
            schema_comment="TPC-H style decision support data",
        )

    def load_logs(self, schema: str, num_rows: int = 20000, seed: int = 7) -> None:
        """Generate and load a web-log analytics dataset under ``schema``."""
        load_dataset(
            self.store,
            self.catalog,
            schema,
            [LogsGenerator(num_rows=num_rows, seed=seed).table()],
            schema_comment="web server access logs",
        )

    def load_tables(self, schema: str, tables: list[TpchTable]) -> None:
        """Load arbitrary generated tables under ``schema``."""
        load_dataset(self.store, self.catalog, schema, tables)

    # -- engines --------------------------------------------------------------------

    def coordinator(self, schema: str) -> Coordinator:
        if schema not in self._coordinators:
            self._coordinators[schema] = Coordinator(
                self.sim, self.config, self.catalog, self.store, schema,
                obs=self.obs,
            )
        return self._coordinators[schema]

    def query_server(
        self,
        schema: str,
        admission=None,
        shares: dict[str, float] | None = None,
    ) -> QueryServer:
        """The (cached) query server for ``schema``.  ``admission``
        (an :class:`~repro.core.scheduler.AdmissionPolicy`) and the WFQ
        ``shares`` apply only when the server is first created."""
        if schema not in self._servers:
            server = QueryServer(
                self.sim,
                self.coordinator(schema),
                self.config,
                admission=admission,
                shares=shares,
                guard=self._guard_policy,
                query_ids=self._query_ids,
            )
            if server.guard is not None and self.alerts is not None:
                server.guard.alert_sink = self.alerts.events.append
            self._servers[schema] = server
        return self._servers[schema]

    def rover(self, users: UserStore, schema: str) -> RoverServer:
        """A Pixels-Rover backend over ``schema``'s query server."""
        return RoverServer(
            users, self.catalog, self.codes, self.query_server(schema)
        )

    # -- the three user verbs ----------------------------------------------------------

    def ask(self, schema: str, question: str) -> str:
        """Natural language → SQL via the text-to-SQL service."""
        response = self.codes.handle(
            {
                "question": question,
                "schema": self.catalog.describe_schema(schema),
            }
        )
        if response.get("error"):
            raise TranslationError(response["error"])
        return response["sql"]

    def submit(
        self,
        schema: str,
        sql: str,
        level: ServiceLevel = ServiceLevel.IMMEDIATE,
        result_limit: int | None = None,
        tenant: str | None = None,
    ) -> ServerQuery:
        """Submit SQL at a service level; advance time to see it finish.
        ``tenant`` tags the query for per-tenant spend accounting."""
        return self.query_server(schema).submit(
            sql, level, result_limit, tenant=tenant
        )

    # -- observability -------------------------------------------------------------------

    def explain(self, schema: str, sql: str) -> str:
        """Render the optimized plan with venue/cost annotations."""
        return self.coordinator(schema).explain(sql)

    def explain_analyze(self, schema: str, sql: str) -> str:
        """Execute ``sql`` inline and render the plan annotated with
        actual per-operator rows, bytes, and wall time."""
        return self.coordinator(schema).explain_analyze(sql)

    def metrics(self) -> str:
        """The Prometheus text exposition of every registered series
        (empty when the db was built without ``observe=True``)."""
        return self.obs.metrics.render()

    def trace(self, query_id: str) -> str:
        """Deterministic JSON span timeline for one query."""
        return self.obs.tracer.export_json(query_id)

    def export_traces(self) -> str:
        """Every recorded trace as one JSON document."""
        return self.obs.tracer.export_all_json()

    def profile(self, schema: str, query_id: str):
        """The finished query's cost/time attribution profile
        (:class:`~repro.obs.profiler.QueryProfile`): span tree fused with
        the per-operator profile, billed dollars attributed per node.
        Its folded/flame-graph exports are byte-reproducible for
        same-seed runs."""
        return self.query_server(schema).query_profile(query_id)

    # -- statement statistics & query journal ----------------------------------------

    def statements_top(self, k: int = 10, by: str = "dollars") -> str:
        """The fixed-width top-K statement table (``by`` is one of
        ``time``/``dollars``/``calls``; empty without ``observe=True``)."""
        return self.obs.observed(self.obs.statements.render_top, k, by)

    def statements_json(self) -> str:
        """Every statement-statistics entry as byte-stable JSON."""
        return self.obs.observed(self.obs.statements.export_json)

    def journal_jsonl(self) -> str:
        """The query journal — every lifecycle event, trace-correlated —
        as deterministic JSONL (empty without ``observe=True``)."""
        return self.obs.observed(self.obs.journal.export_jsonl)

    def journal_captures(self) -> list[dict]:
        """Journal records that tail-based capture enriched with the full
        profiler attribution tree and flame graph."""
        return self.obs.journal.captures()

    # -- metering ledger & spend accounting -------------------------------------------

    def ledger_jsonl(self) -> str:
        """The metering ledger — every charge and void, integer
        nanodollars — as byte-stable JSONL (empty without
        ``observe=True``)."""
        return self.obs.observed(self.obs.ledger.export_jsonl)

    def spend_report(self) -> dict:
        """The per-tenant spend report: net nanodollars, per-level
        split, soft-budget status, provider-side spend per venue."""
        return self.obs.spend.report()

    def spend_json(self) -> str:
        """Byte-stable JSON rendering of :meth:`spend_report`."""
        return self.obs.observed(self.obs.spend.export_json)

    def reconcile(self):
        """Replay every server's metering ledger and prove ledger ==
        profiler attribution == billed price == $/TB bytes basis, in
        exact integer arithmetic.  Returns one merged
        :class:`~repro.obs.reconcile.ReconciliationReport`."""
        from repro.obs.reconcile import ReconciliationReport, reconcile_server

        report = ReconciliationReport()
        # The ledger is shared across schemas: replay the events once
        # (via the first server), then cross-check every server's
        # queries against it.
        for index, schema in enumerate(sorted(self._servers)):
            report.merge(
                reconcile_server(
                    self._servers[schema], replay_events=index == 0
                )
            )
        return report

    # -- SLO engine ----------------------------------------------------------------

    def slo_report(self) -> dict:
        """Per-level compliance ratios, violation counts, and
        error-budget state (empty without ``observe=True``)."""
        return self.obs.slo.snapshot()

    def slo_json(self) -> str:
        """Every SLO record plus the summary, as deterministic JSON."""
        if not self.obs.enabled:
            return '{"records": [], "summary": {"levels": {}}}'
        return self.obs.slo.export_json()

    def timeseries_jsonl(self) -> str:
        """The scrape loop's time-series store as deterministic JSONL.

        Takes one final scrape first so the tail of the run (after the
        last cadence tick) is captured."""
        if self.scrape_loop is None:
            return ""
        self.scrape_loop.scrape()
        return self.scrape_loop.store.export_jsonl()

    def alerts_jsonl(self) -> str:
        """The alert engine's transition log as deterministic JSONL."""
        return self.alerts.export_jsonl() if self.alerts is not None else ""

    def autoscaler_audit(self) -> list[dict]:
        """Every VM cluster's scaling decisions, time-ordered, with the
        owning schema attached — 1:1 with watermark-crossing counts."""
        entries: list[dict] = []
        for schema in sorted(self._coordinators):
            cluster = self._coordinators[schema].vm_cluster
            for decision in cluster.audit_log:
                entries.append({"schema": schema, **decision.to_dict()})
        entries.sort(key=lambda entry: (entry["time"], entry["schema"]))
        return entries

    def autoscaler_audit_jsonl(self) -> str:
        import json as _json

        lines = [
            _json.dumps(entry, sort_keys=True)
            for entry in self.autoscaler_audit()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- live activity & projection guard ---------------------------------------------

    def activity(self) -> dict:
        """The live query-activity snapshot — every submission's
        lifecycle state, per-operator progress fractions, and projected
        nanodollar bill at the current simulated time (the
        ``pg_stat_activity`` of this system; empty without
        ``observe=True``)."""
        return self.obs.activity.snapshot()

    def activity_json(self) -> str:
        """Byte-stable JSON rendering of :meth:`activity`."""
        return self.obs.observed(self.obs.activity.export_json)

    def projection_report(self) -> dict:
        """Estimator accuracy over every billed query: per-query
        estimated vs. actual nanodollars plus the aggregate MAPE."""
        return self.obs.activity.projection_report()

    def projection_json(self) -> str:
        """Byte-stable JSON rendering of :meth:`projection_report`."""
        return self.obs.observed(self.obs.activity.export_projection_json)

    def guard_audit(self) -> list[dict]:
        """Every projection-guard decision across this instance's query
        servers, time-ordered with the owning schema attached — the
        guard's analogue of :meth:`autoscaler_audit`."""
        entries: list[dict] = []
        for schema in sorted(self._servers):
            guard = self._servers[schema].guard
            if guard is None:
                continue
            for payload in guard.audit():
                entries.append({"schema": schema, **payload})
        entries.sort(key=lambda entry: (entry["time"], entry["schema"]))
        return entries

    def guard_audit_jsonl(self) -> str:
        import json as _json

        lines = [
            _json.dumps(entry, sort_keys=True)
            for entry in self.guard_audit()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def dashboard_data(self, title: str = "PixelsDB operator dashboard") -> DashboardData:
        """The bundle both dashboard renderers consume (final scrape
        included)."""
        if self.scrape_loop is not None:
            self.scrape_loop.scrape()
        return DashboardData.build(
            title=title,
            now=self.sim.now,
            timeseries=self.timeseries or TimeSeriesStore(),
            slo=self.obs.slo,
            alerts=self.alerts,
            audit=self.autoscaler_audit(),
            seed=self.seed,
            registry=self.obs.metrics,
            statements=self.obs.statements,
            spend=self.obs.spend,
            scheduler=self._scheduler_snapshot(),
            activity=self.obs.activity if self.obs.enabled else None,
        )

    def _scheduler_snapshot(self) -> dict | None:
        """The scheduler state of this instance's query servers; with
        several schemas the snapshots are keyed by schema name."""
        if not self._servers:
            return None
        if len(self._servers) == 1:
            (server,) = self._servers.values()
            return server.scheduler_snapshot()
        return {
            schema: self._servers[schema].scheduler_snapshot()
            for schema in sorted(self._servers)
        }

    def dashboard_html(self, title: str = "PixelsDB operator dashboard") -> str:
        """Self-contained static HTML operator report — byte-identical
        across same-seed runs."""
        return render_dashboard_html(self.dashboard_data(title))

    def dashboard_text(self, title: str = "PixelsDB operator dashboard") -> str:
        """Console rendering of the same report."""
        return render_dashboard_text(self.dashboard_data(title))

    # -- simulated time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, seconds: float) -> None:
        """Advance simulated time by ``seconds``."""
        self.sim.run_until(self.sim.now + seconds)

    def run_to_completion(self, max_slices: int = 100_000) -> None:
        """Advance time until every submitted query is finished/failed."""
        for _ in range(max_slices):
            if all(
                query.status.is_terminal
                for server in self._servers.values()
                for query in server.queries
            ):
                return
            self.sim.run_until(self.sim.now + 60.0)
        raise PixelsError("queries did not complete; check for starvation")
