"""The spend accountant and the SLO tracker against the stores they replaced.

``SpendAccountant`` is a view over the ledger's running totals and the
SLO tracker folds its records on read.  The oracles are the incremental
versions they replaced, kept here verbatim: the spend accountant that
listened to the ledger and kept its own running copy, and the per-level
SLO state that kept counters and rolled its budget window on every
record.  A seeded, observed, two-tenant replay with soft budgets, VM
worker crashes, CF invocations (provider charges at both venues), and
cancels of held and in-flight queries is fed through both, and the
reports must be equal as whole dicts.
"""

import numpy as np
import pytest

from repro.core import QueryServer, ServiceLevel
from repro.obs import Instrumentation
from repro.obs.profiler import NANOS_PER_DOLLAR
from repro.obs.slo import SloObjective, SloRecord, _BudgetWindow, default_objectives
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.faults import FaultConfig
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

BUDGETS = {"tenant-0": 1e-6, "tenant-1": 10.0}

# -- oracles: the replaced incremental stores ----------------------------------


class OracleSpendAccountant:
    """Running per-tenant/per-level spend over ledger events.

    State is bounded by tenants × levels and venues, not by event count.
    """

    def __init__(self, budgets: dict[str, float] | None = None) -> None:
        #: (tenant, level) -> net nanodollars (voids subtract).
        self._totals: dict[tuple[str, str], int] = {}
        self._provider: dict[str, int] = {}  # venue -> nanodollars
        self._budgets: dict[str, float] = dict(budgets or {})
        self._events = 0
        self._voids = 0

    def on_event(self, event) -> None:
        """Ledger listener: fold one meter event into the aggregates."""
        self._events += 1
        if event.kind == "void":
            self._voids += 1
        if event.account == "provider":
            venue = event.venue
            self._provider[venue] = (
                self._provider.get(venue, 0) + event.nanodollars
            )
            return
        key = (event.tenant, event.level)
        self._totals[key] = self._totals.get(key, 0) + event.nanodollars

    def tenants(self) -> list[str]:
        return sorted({tenant for tenant, _ in self._totals})

    def tenant_nanodollars(self, tenant: str) -> int:
        return sum(
            nanos
            for (t, _), nanos in self._totals.items()
            if t == tenant
        )

    def by_level(self, tenant: str) -> dict[str, int]:
        """Level → net nanodollars for one tenant, level-sorted."""
        out = {
            level: nanos
            for (t, level), nanos in self._totals.items()
            if t == tenant
        }
        return {level: out[level] for level in sorted(out)}

    def provider_nanodollars(self) -> dict[str, int]:
        """Provider-account spend per venue, venue-sorted."""
        return {venue: self._provider[venue] for venue in sorted(self._provider)}

    def report(self) -> dict:
        """The per-tenant spend report (JSON-ready, deterministic)."""
        tenants = []
        for tenant in self.tenants():
            nanos = self.tenant_nanodollars(tenant)
            budget = self._budgets.get(tenant)
            tenants.append(
                {
                    "tenant": tenant,
                    "nanodollars": nanos,
                    "dollars": round(nanos / NANOS_PER_DOLLAR, 12),
                    "by_level": self.by_level(tenant),
                    "budget_dollars": budget,
                    "over_budget": (
                        nanos > round(budget * NANOS_PER_DOLLAR)
                        if budget is not None
                        else False
                    ),
                }
            )
        return {
            "tenants": tenants,
            "provider_nanodollars": self.provider_nanodollars(),
            "events": self._events,
            "voids": self._voids,
        }


class OracleLevelState:
    """All accounting for one service level."""

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.records: list[SloRecord] = []
        self.total = 0
        self.violations = 0
        self.billed = 0.0
        self.window = _BudgetWindow(index=0)
        self.closed_windows: list[_BudgetWindow] = []

    def add(self, record: SloRecord) -> None:
        self.total += 1
        self.billed += record.billed
        if record.violated:
            self.violations += 1
        self.records.append(record)
        self._roll_window(record.finished_at)
        if record.deadline_s is not None:
            self.window.total += 1
            if record.violated:
                self.window.violations += 1

    def _roll_window(self, now: float) -> None:
        index = int(now // self.objective.budget_window_s)
        if index > self.window.index:
            # Close the current window (even if empty windows were
            # skipped in between — only the occupied one is kept).
            if self.window.total:
                self.closed_windows.append(self.window)
            self.window = _BudgetWindow(index=index)

    def compliance(self) -> float | None:
        """Lifetime fraction of deadline-carrying queries that met it."""
        deadlined = [r for r in self.records if r.deadline_s is not None]
        if not deadlined:
            return None
        met = sum(1 for r in deadlined if not r.violated)
        return met / len(deadlined)

    def rolling_compliance(self, window: int) -> float | None:
        """Compliance over the most recent ``window`` deadline-carrying
        queries — the operator's 'are we OK right now' number."""
        deadlined = [r for r in self.records if r.deadline_s is not None]
        if not deadlined:
            return None
        recent = deadlined[-window:]
        met = sum(1 for r in recent if not r.violated)
        return met / len(recent)


def oracle_slo_snapshot(
    levels: dict[str, OracleLevelState], rolling_window: int = 100
) -> dict:
    """``SloTracker.snapshot`` over the incremental states."""
    out = {}
    for name in sorted(levels):
        state = levels[name]
        out[name] = {
            "objective": {
                "target": state.objective.target,
                "budget_window_s": state.objective.budget_window_s,
            },
            "queries": state.total,
            "violations": state.violations,
            "compliance": state.compliance(),
            "rolling_compliance": state.rolling_compliance(rolling_window),
            "billed": state.billed,
            "budget": state.window.to_dict(state.objective),
            "closed_windows": [
                w.to_dict(state.objective) for w in state.closed_windows
            ],
        }
    return {"levels": out}


# -- the replay ------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    store, catalog = ObjectStore(), Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    return store, catalog


def replay(store, catalog, seed: int) -> QueryServer:
    """120 seeded arrivals over three levels and two budgeted tenants,
    with crashes, CF failures and 25 cancels of whatever is live; short
    budget windows so the SLO fold rolls and closes several."""
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    config = TurboConfig.experiment(data_inflation=20_000.0)
    obs = Instrumentation.create(
        clock=lambda: sim.now,
        objectives=[
            SloObjective(o.level, o.target, budget_window_s=60.0)
            for o in default_objectives()
        ],
        budgets=BUDGETS,
    )
    coordinator = Coordinator(
        sim, config, catalog, store, "tpch", obs=obs,
        faults=FaultConfig(vm_crash_rate=0.3, cf_failure_rate=0.3, max_retries=2),
    )
    server = QueryServer(sim, coordinator, config)
    statements = list(TPCH_QUERIES.values())
    levels = list(ServiceLevel)
    for at in np.sort(rng.uniform(0.0, 240.0, 120)):
        sql = statements[int(rng.integers(len(statements)))]
        level = levels[int(rng.integers(len(levels)))]
        tenant = f"tenant-{int(rng.integers(2))}"
        sim.schedule(
            float(at),
            lambda sql=sql, level=level, tenant=tenant: server.submit(
                sql, level, tenant=tenant
            ),
        )
    for at in np.sort(rng.uniform(5.0, 400.0, 25)):
        sim.run_until(float(at))
        live = [q for q in server.queries if not q.status.is_terminal]
        if live:
            server.cancel(live[int(rng.integers(len(live)))].query_id)
    sim.run_until(max(sim.now, 240.0))  # every arrival is in
    while not all(q.status.is_terminal for q in server.queries):
        sim.run_until(sim.now + 60.0)
    return server


@pytest.fixture(scope="module", params=[1, 2], ids=["seed1", "seed2"])
def server(request, dataset):
    return replay(*dataset, request.param)


class TestReplayReachesEveryPath:
    def test_paths(self, server):
        queries = server.queries
        assert any(q.execution is not None and q.execution.retries for q in queries)
        assert any(q.cancelled and q.execution is None for q in queries)
        assert any(q.cancelled and q.execution is not None for q in queries)
        provider = server.obs.spend.provider_nanodollars()
        assert provider.get("cf", 0) > 0 and provider.get("vm", 0) > 0
        tenants = server.obs.spend.report()["tenants"]
        assert [t["tenant"] for t in tenants] == sorted(BUDGETS)
        assert [t["over_budget"] for t in tenants] == [True, False]
        assert len(server.obs.slo.budget_history("relaxed")) > 1


class TestFoldsMatchTheIncrementalStores:
    def test_spend_report(self, server):
        oracle = OracleSpendAccountant(BUDGETS)
        for event in server.obs.ledger.events():
            oracle.on_event(event)
        assert server.obs.spend.report() == oracle.report()

    def test_slo_snapshot(self, server):
        slo = server.obs.slo
        objectives = {o.level: o for o in default_objectives()}
        levels = {}
        for name in slo.levels():
            objective = objectives[name]
            state = levels[name] = OracleLevelState(
                SloObjective(name, objective.target, budget_window_s=60.0)
            )
            for record in slo.records(name):
                state.add(record)
        expected = oracle_slo_snapshot(levels)
        assert slo.snapshot() == expected
        for name, state in levels.items():
            assert slo.budget(name) == state.window.to_dict(state.objective)
            assert slo.budget_history(name) == [
                w.to_dict(state.objective) for w in state.closed_windows
            ]
