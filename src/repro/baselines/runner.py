"""Shared experiment harness: replay an arrival schedule, collect numbers.

Every benchmark builds on :func:`run_workload`: it wires up a fresh
simulator + coordinator + query server over an already-loaded object
store/catalog, schedules each (time, sql, level) submission, runs the
simulation to completion, and returns a :class:`WorkloadResult` with the
per-level latency/billing summaries the paper's claims are stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.query_server import QueryServer, ServerQuery
from repro.core.service_levels import QueryStatus, ServiceLevel
from repro.errors import QueryRejectedError
from repro.obs import Instrumentation
from repro.obs.alerts import BurnRateRule, ThresholdRule
from repro.obs.dashboard import DashboardData
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo.config import TurboConfig
from repro.turbo.coordinator import Coordinator


@dataclass(frozen=True)
class Submission:
    """One scheduled query submission."""

    time: float
    sql: str
    level: ServiceLevel
    result_limit: int | None = None
    #: Billing tenant for spend accounting (None → server default).
    tenant: str | None = None


@dataclass
class WorkloadResult:
    """Everything a bench needs from one workload replay."""

    sim: Simulator
    coordinator: Coordinator
    server: QueryServer
    #: The coordinator's bundle: the observed stack (sinks, time
    #: series, alerts, scrape loop) when run_workload(observe=True), the
    #: unobserved default otherwise, whose every export reads ``""``.
    obs: Instrumentation
    queries: list[ServerQuery] = field(default_factory=list)

    def of_level(self, level: ServiceLevel) -> list[ServerQuery]:
        return [query for query in self.queries if query.level is level]

    def finished(self, level: ServiceLevel | None = None) -> list[ServerQuery]:
        pool = self.queries if level is None else self.of_level(level)
        return [q for q in pool if q.status is QueryStatus.FINISHED]

    def pending_times(self, level: ServiceLevel) -> list[float]:
        return [
            q.pending_time_s
            for q in self.of_level(level)
            if q.pending_time_s is not None
        ]

    def mean_pending(self, level: ServiceLevel) -> float:
        times = self.pending_times(level)
        return sum(times) / len(times) if times else math.nan

    def max_pending(self, level: ServiceLevel) -> float:
        times = self.pending_times(level)
        return max(times) if times else math.nan

    def billed(self, level: ServiceLevel | None = None) -> float:
        pool = self.queries if level is None else self.of_level(level)
        return sum(q.price for q in pool)

    def billed_per_tb(self, level: ServiceLevel) -> float:
        """Effective $/TB actually charged — experiment C1's measurement."""
        from repro.turbo.cost import TB

        finished = self.finished(level)
        inflation = self.coordinator.config.data_inflation
        scanned = sum(q.execution.bytes_scanned for q in finished) * inflation
        if scanned == 0:
            return math.nan
        return self.billed(level) / (scanned / TB)

    def provider_cost(self) -> float:
        return self.coordinator.total_provider_cost()

    def dashboard_data(self, title: str) -> DashboardData:
        """The operator-dashboard bundle for an observed replay
        (requires ``run_workload(observe=True)``)."""
        if not self.obs.enabled:
            raise ValueError("run the workload with observe=True first")
        return DashboardData.build(
            title,
            self.sim.now,
            self.obs,
            audit=[
                decision.to_dict()
                for decision in self.coordinator.vm_cluster.audit_log
            ],
            scheduler=self.server.scheduler_snapshot(),
        )


def run_workload(
    submissions: list[Submission],
    store: ObjectStore,
    catalog: Catalog,
    schema: str,
    config: TurboConfig | None = None,
    coordinator_cls: type[Coordinator] = Coordinator,
    seed: int = 0,
    horizon_s: float | None = None,
    coordinator_kwargs: dict | None = None,
    observe: bool = False,
    scrape_interval_s: float = 30.0,
    alert_rules: list[BurnRateRule | ThresholdRule] | None = None,
    server_kwargs: dict | None = None,
) -> WorkloadResult:
    """Replay ``submissions`` against a fresh engine instance.

    Args:
        submissions: The arrival schedule (need not be sorted).
        store, catalog, schema: An already-loaded dataset.
        config: Runtime parameters; defaults to the paper's values.
        coordinator_cls: Swap in a baseline engine here.
        horizon_s: Stop the simulation at this time even if queries are
            still held (needed for best-effort queries that may never run
            in a saturated-forever scenario); None runs to quiescence.
        observe: Turn on the observability stack
            (:meth:`Instrumentation.create` over this replay's
            simulator: sinks, scrape loop, alert engine); query results
            and billed prices are unchanged either way.  A bundle passed
            as ``coordinator_kwargs["obs"]`` is used as given.
        scrape_interval_s: Virtual-time cadence of the scrape loop.
        alert_rules: Alert rule set; defaults to
            :func:`repro.obs.alerts.default_rules`.
        server_kwargs: Extra :class:`QueryServer` keyword arguments —
            how fleet benches set admission policy and WFQ shares.
    """
    if config is None:
        config = TurboConfig()
    sim = Simulator(seed=seed)
    kwargs = dict(coordinator_kwargs or {})
    if observe and "obs" not in kwargs:
        kwargs["obs"] = Instrumentation.create(
            sim=sim, scrape_interval_s=scrape_interval_s, alert_rules=alert_rules
        )
    coordinator = coordinator_cls(sim, config, catalog, store, schema, **kwargs)
    server = QueryServer(sim, coordinator, config, **(server_kwargs or {}))
    result = WorkloadResult(
        sim=sim, coordinator=coordinator, server=server, obs=coordinator.obs
    )

    def make_submit(submission: Submission):
        def submit() -> None:
            try:
                record = server.submit(
                    submission.sql,
                    submission.level,
                    result_limit=submission.result_limit,
                    tenant=submission.tenant,
                )
            except QueryRejectedError:
                # Admission/back-pressure refusals are a scheduling
                # outcome, not a harness error; the server's rejection
                # counters carry the tally.
                return
            result.queries.append(record)

        return submit

    ordered = sorted(submissions, key=lambda s: s.time)
    for submission in ordered:
        sim.schedule_at(submission.time, make_submit(submission))
    last_arrival = ordered[-1].time if ordered else 0.0
    if horizon_s is not None:
        sim.run_until(horizon_s)
    else:
        _run_to_quiescence(sim, result, last_arrival)
    result.obs.scrape()  # capture the final state past the last tick
    return result


def _run_to_quiescence(
    sim: Simulator, result: WorkloadResult, last_arrival: float
) -> None:
    """Run until every submitted query reached a terminal status.

    The autoscaler and scheduler tick forever, so a bare ``sim.run()``
    never returns; instead advance in slices and stop once all queries
    are finished or failed.
    """
    slice_s = 60.0
    for _ in range(100_000):
        sim.run_until(sim.now + slice_s)
        if sim.now >= last_arrival and all(
            q.status.is_terminal for q in result.queries
        ):
            return
    raise RuntimeError("workload did not quiesce; check for starved queries")
