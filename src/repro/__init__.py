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

import json
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
    "DB_EXPORTS",
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
        """``observe=True`` switches on the full observability stack:
        :meth:`Instrumentation.create` over this instance's simulator,
        scraping every ``scrape_interval_s`` simulated seconds and
        alerting on ``alert_rules``; read its artifacts with
        :meth:`export`.  ``capture`` tunes the journal's tail-based
        slow-query capture policy.  ``tenant_budgets``
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
        self._guard_policy = guard
        self.obs = (
            Instrumentation.create(
                capture=capture,
                budgets=tenant_budgets,
                sim=self.sim,
                scrape_interval_s=scrape_interval_s,
                alert_rules=alert_rules,
            )
            if observe
            else Instrumentation.disabled()
        )

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

    def export(self, kind: str) -> str:
        """The exact bytes of one exported artifact: a kind of the
        bundle's table (:data:`repro.obs.EXPORTS`, e.g. ``"ledger"``,
        ``"timeseries"``) or one of :data:`DB_EXPORTS`, which span every
        schema's server; ``""`` without ``observe=True``."""
        if kind in DB_EXPORTS:
            return self.obs.observed(_jsonl, DB_EXPORTS[kind](self))
        return self.obs.export(kind)

    def profile(self, schema: str, query_id: str):
        """The finished query's cost/time attribution profile
        (:class:`~repro.obs.profiler.QueryProfile`): span tree fused with
        the per-operator profile, billed dollars attributed per node.
        Its folded/flame-graph exports are byte-reproducible for
        same-seed runs."""
        return self.query_server(schema).query_profile(query_id)

    # -- statement statistics & billing reconciliation -------------------------------

    def statements_top(self, k: int = 10, by: str = "dollars") -> str:
        """The fixed-width top-K statement table (``by`` is one of
        ``time``/``dollars``/``calls``; empty without ``observe=True``)."""
        return self.obs.observed(self.obs.statements.render_top, k, by)

    def reconcile(self):
        """Replay every server's metering ledger and prove ledger ==
        profiler attribution == billed price == $/TB bytes basis, in
        exact integer arithmetic.  Returns one merged
        :class:`~repro.obs.reconcile.ReconciliationReport`.  An unobserved
        database keeps no ledger to replay: it raises ``ValueError``."""
        from repro.obs.reconcile import ReconciliationReport, reconcile_server

        if not self.obs.enabled:
            raise ValueError("reconcile() needs observe=True: no ledger is kept")
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

    # -- audits & dashboards -------------------------------------------------------

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

    def dashboard_data(self, title: str = "PixelsDB operator dashboard") -> DashboardData:
        """The bundle both dashboard renderers consume (final scrape
        included)."""
        return DashboardData.build(
            title,
            self.sim.now,
            self.obs,
            audit=self.autoscaler_audit(),
            seed=self.seed,
            scheduler=self._scheduler_snapshot(),
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


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


#: ``PixelsDB.export``'s kinds beyond its bundle's (JSONL, one row each).
DB_EXPORTS = {
    "autoscaler_audit": PixelsDB.autoscaler_audit,
    "guard_audit": PixelsDB.guard_audit,
}
