"""Live query activity: lifecycle states, in-flight progress, bill
projections, estimator accuracy, and the projection-driven guard."""

import dataclasses
import json

import pytest

from repro.core import QueryServer, QueryStatus, ServiceLevel
from repro.obs import GuardPolicy, Instrumentation
from repro.obs.activity import GUARD_ACTIONS
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.workloads import TpchGenerator, load_dataset

HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"
LIGHT = "SELECT count(*) FROM region"


def observed_env(
    rows_per_group: int = 256,
    guard: GuardPolicy | None = None,
    budgets: dict[str, float] | None = None,
    capture=None,
    admission=None,
    grace_s: float | None = None,
):
    """A fully observed stack; small row groups make every lineitem scan
    multi-morsel so mid-flight progress is visible morsel by morsel.  Its
    alert engine has no rules of its own (budgets add theirs), so the
    guard's alerts are the only ones besides budget crossings."""
    sim = Simulator(seed=11)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(
        store,
        catalog,
        "tpch",
        TpchGenerator(scale=0.05).tables(),
        rows_per_group=rows_per_group,
    )
    config = TurboConfig.fast()
    if grace_s is not None:
        config = dataclasses.replace(config, grace_period_s=grace_s)
    obs = Instrumentation.create(
        budgets=budgets, capture=capture, sim=sim, alert_rules=[]
    )
    coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
    server = QueryServer(
        sim, coordinator, config, guard=guard, admission=admission
    )
    return sim, coordinator, server


def run_to_exec_start(sim, server, record, horizon: float = 600.0):
    """Advance until the activity registry sees the execution window."""
    entry = server.obs.activity.entry(record.query_id)
    step = 0.05
    t = sim.now
    while entry.exec_started_at is None and t < horizon:
        t += step
        sim.run_until(t)
        entry = server.obs.activity.entry(record.query_id)
    assert entry.exec_started_at is not None, "query never started executing"
    return entry


class TestLifecycle:
    def test_idle_cluster_lifecycle_to_billed(self):
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        entry = server.obs.activity.entry(record.query_id)
        assert entry is not None
        assert entry.tenant == "acme"
        assert entry.state in ("admitted", "dispatched", "executing")
        sim.run_until(900)
        assert record.status is QueryStatus.FINISHED
        entry = server.obs.activity.entry(record.query_id)
        assert entry.state == "billed"
        # The journal keeps the transitions, each with its time.
        rows = [
            row
            for row in server.obs.journal.records()
            if row["query_id"] == record.query_id
        ]
        events = [row["event"] for row in rows]
        assert events[0] == "submit"
        assert events.index("dispatch") < events.index("finish")
        assert events.count("finish") == 1
        # Timestamps are monotone along the journal.
        times = [row["ts"] for row in rows]
        assert times == sorted(times)

    def test_saturated_relaxed_query_reports_queued(self):
        sim, _, server = observed_env()
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        entry = server.obs.activity.entry(held.query_id)
        assert entry.state == "queued"
        assert entry.deadline_s is not None  # relaxed: the grace period
        snapshot = server.obs.activity.snapshot()
        row = next(
            r for r in snapshot["queries"] if r["query_id"] == held.query_id
        )
        assert row["state"] == "queued"
        assert row["progress"] == 0.0

    def test_coordinator_only_executions_are_not_tracked(self):
        sim, coordinator, server = observed_env()
        coordinator.submit(LIGHT, cf_enabled=False)
        sim.run_until(60)
        assert server.obs.activity.entries() == []


class TestProgress:
    def test_midflight_snapshot_shows_partial_operator_progress(self):
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        entry = run_to_exec_start(sim, server, record)
        assert entry.exec_duration_s > 0
        sim.run_until(entry.exec_started_at + entry.exec_duration_s * 0.5)
        assert record.status is QueryStatus.RUNNING
        snapshot = server.obs.activity.snapshot()
        row = next(
            r for r in snapshot["queries"] if r["query_id"] == record.query_id
        )
        assert row["state"] == "executing"
        assert 0.0 < row["progress"] < 1.0
        operators = row["operators"]
        assert operators, "no per-operator progress rows"
        scans = [op for op in operators if "morsels_total" in op]
        assert scans, "no scan reported morsel counts"
        for op in scans:
            assert op["morsels_total"] > 1  # rows_per_group made it so
            assert 0 <= op["morsels_done"] <= op["morsels_total"]
            assert op["progress"] == pytest.approx(
                op["morsels_done"] / op["morsels_total"]
            )
        blocking = [op for op in operators if "phase" in op]
        assert blocking, "the GROUP BY sink reported no phase"
        for op in blocking:
            assert op["phase"] in ("accumulate", "emit", "done")
        for op in operators:
            assert 0.0 <= op["progress"] <= 1.0

    def test_progress_monotone_and_capped_at_one(self):
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        entry = run_to_exec_start(sim, server, record)
        activity = server.obs.activity
        seen = []
        for fraction in (0.25, 0.5, 0.75, 1.0):
            sim.run_until(
                entry.exec_started_at + entry.exec_duration_s * fraction
            )
            snapshot = activity.snapshot()
            row = next(
                r
                for r in snapshot["queries"]
                if r["query_id"] == record.query_id
            )
            seen.append(row["progress"])
            assert 0.0 <= row["progress"] <= 1.0
        assert seen == sorted(seen)
        sim.run_until(900)  # far past the window: still capped
        row = next(
            r
            for r in activity.snapshot()["queries"]
            if r["query_id"] == record.query_id
        )
        assert row["progress"] == 1.0


class TestProjection:
    def test_terminal_projection_equals_billed_price_exactly(self):
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        assert record.status is QueryStatus.FINISHED
        row = next(
            r
            for r in server.obs.activity.snapshot()["queries"]
            if r["query_id"] == record.query_id
        )
        assert row["state"] == "billed"
        assert row["actual_nanodollars"] == record.price_nanodollars
        projection = row["projection"]
        assert projection["nanodollars"] == record.price_nanodollars
        assert projection["source"] == "billed"
        # The resource split is exact: the four axes sum to the total.
        assert sum(projection["by_resource"].values()) == record.price_nanodollars

    def test_exec_start_projection_already_exact(self):
        """Execution is eager under virtual time, so the moment the
        window opens the projection knows the final bill."""
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        entry = run_to_exec_start(sim, server, record)
        assert entry.final_nanodollars is not None
        sim.run_until(900)
        assert entry.final_nanodollars == record.price_nanodollars

    def test_repeat_statement_projects_from_prior(self):
        sim, _, server = observed_env()
        first = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        assert first.status is QueryStatus.FINISHED
        second = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        entry = server.obs.activity.entry(second.query_id)
        assert entry.prior.nanodollars == first.price_nanodollars
        assert entry.estimate_source == "prior"
        # The snapshot already carries a $ projection (the idle cluster
        # starts the query synchronously, so the prior blends with the
        # execution-known final — both equal the first run's bill).
        row = next(
            r
            for r in server.obs.activity.snapshot()["queries"]
            if r["query_id"] == second.query_id
        )
        assert row["projection"]["nanodollars"] == first.price_nanodollars
        assert row["projection"]["source"] in ("prior", "blended")
        sim.run_until(1800)
        records = server.obs.activity.projection_records()
        assert [r.source for r in records] == ["execution", "prior"]
        # Same statement, same data: the prior was dead-on.
        assert records[-1].ape == 0.0

    def test_projection_report_aggregates_mape(self):
        sim, _, server = observed_env()
        for _ in range(3):
            server.submit(HEAVY, ServiceLevel.RELAXED)
            sim.run_until(sim.now + 600)
        report = server.obs.activity.projection_report()
        assert report["queries"] == 3
        assert report["mape"] == 0.0
        assert report["by_source"] == {"execution": 1, "prior": 2}
        assert len(report["records"]) == 3


class TestGuard:
    def test_budget_cancel_voids_ledger_and_reconciles(self):
        from repro.obs.reconcile import reconcile_server

        sim, _, server = observed_env(
            guard=GuardPolicy(budget_action="cancel", deadline_action=None),
            budgets={"acme": 1e-9},  # one nanodollar: anything trips it
        )
        alerts = server.obs.alerts.events
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        assert record.status is QueryStatus.FAILED
        assert record.price_nanodollars == 0
        entry = server.obs.activity.entry(record.query_id)
        assert entry.state == "cancelled"
        decisions = server.guard.audit_log
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.rule == "budget"
        assert decision.action == "cancel"
        assert decision.applied is True
        assert decision.query_id == record.query_id
        assert decision.projected_nanodollars > decision.limit_nanodollars
        assert [a.rule for a in alerts] == ["projection_guard_budget"]
        # The cancel went through the server: ledger voided, books balance.
        ledger = server.obs.ledger
        assert record.query_id in ledger.voided_query_ids()
        assert ledger.net_nanodollars(record.query_id) == 0
        report = reconcile_server(server)
        assert report.ok, report.render()

    def test_budget_downgrade_demotes_held_relaxed_query(self):
        sim, _, server = observed_env(
            guard=GuardPolicy(budget_action="downgrade", deadline_action=None),
            budgets={"acme": 1e-9},
        )
        # Seed a prior so the held query projects a bill while queued.
        seed = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        assert seed.status is QueryStatus.FINISHED
        for _ in range(12):  # saturate so the next relaxed query holds
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        assert held.dispatched_at is None
        entry = server.obs.activity.entry(held.query_id)
        assert entry.state == "queued"
        sim.run_until(sim.now + 30)  # let the guard tick
        downgrades = [
            d for d in server.guard.audit_log if d.query_id == held.query_id
        ]
        assert downgrades and downgrades[0].action == "downgrade"
        assert downgrades[0].applied is True
        # The decision records the level the downgrade left the query at.
        assert downgrades[0].level == "best_effort"
        assert server.guard.audit()[-1]["level"] == "best_effort"
        assert held.level is ServiceLevel.BEST_EFFORT
        assert server.obs.activity.entry(held.query_id).level == "best_effort"
        row = next(
            r
            for r in server.obs.activity.snapshot()["queries"]
            if r["query_id"] == held.query_id
        )
        assert row["requested_level"] == "relaxed"
        sim.run_until(3600)
        assert held.status is QueryStatus.FINISHED

    def test_downgraded_query_takes_the_best_effort_deadline(self):
        """A guard downgrade moves the query to best-effort, which has no
        deadline: the deadline rule must not then cancel it against the
        relaxed grace period it no longer holds."""
        sim, _, server = observed_env(
            guard=GuardPolicy(budget_action="downgrade", deadline_action="cancel"),
            budgets={"acme": 1e-9},
            grace_s=1.0,
        )
        seed = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        assert seed.status is QueryStatus.FINISHED
        for _ in range(40):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(20_000)
        entry = server.obs.activity.entry(held.query_id)
        rulings = [
            (d.rule, d.action)
            for d in server.guard.audit_log
            if d.query_id == held.query_id
        ]
        assert rulings == [("budget", "downgrade")]
        assert held.level is ServiceLevel.BEST_EFFORT
        assert entry.deadline_s is None
        assert entry.deadline_s == server.deadline_for(ServiceLevel.BEST_EFFORT)
        assert held.status is QueryStatus.FINISHED

    def test_deadline_alert_fires_while_pending(self):
        # Grace far below the VM backlog: force-dispatched relaxed
        # queries still sit in the VM queue past their deadline.
        sim, _, server = observed_env(
            guard=GuardPolicy(budget_action=None, deadline_action="alert"),
            grace_s=0.05,
        )
        alerts = server.obs.alerts.events
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(3600)
        deadline_trips = [
            d for d in server.guard.audit_log if d.rule == "deadline"
        ]
        assert deadline_trips, "no relaxed query outlived its grace period"
        for decision in deadline_trips:
            assert decision.action == "alert"
            assert decision.applied is True
        assert any(a.rule == "projection_guard_deadline" for a in alerts)
        # Alert-only guard: every query still finishes and bills normally.
        jsonl = server.guard.export_jsonl()
        assert len(jsonl.splitlines()) == len(server.guard.audit_log)

    def test_guard_decisions_counted_and_journaled(self):
        sim, _, server = observed_env(
            guard=GuardPolicy(budget_action="cancel", deadline_action=None),
            budgets={"acme": 1e-9},
        )
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)
        rendered = server.obs.metrics.render()
        assert (
            'pixels_guard_decisions_total{action="cancel",rule="budget"} 1'
            in rendered
        )
        guard_events = [
            r
            for r in server.obs.journal.records()
            if r.get("event") == "guard"
        ]
        assert len(guard_events) == 1
        assert guard_events[0]["query_id"] == record.query_id

    def test_unknown_guard_action_rejected(self):
        with pytest.raises(ValueError):
            GuardPolicy(budget_action="explode")
        assert GUARD_ACTIONS == ("alert", "downgrade", "cancel")


class TestExportsAndSurfaces:
    def test_activity_export_byte_identical_across_runs(self):
        exports = []
        for _ in range(2):
            sim, _, server = observed_env()
            server.submit(HEAVY, ServiceLevel.RELAXED)
            server.submit(LIGHT, ServiceLevel.IMMEDIATE)
            sim.run_until(300)
            exports.append(server.obs.activity.export_json())
            exports.append(server.obs.activity.export_projection_json())
        assert exports[0] == exports[2]
        assert exports[1] == exports[3]

    def test_activity_gauges_behind_cardinality_guard(self):
        sim, _, server = observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        run_to_exec_start(sim, server, record)
        rendered = server.obs.metrics.render()
        assert "pixels_activity_queries" in rendered
        assert 'pixels_activity_projected_dollars{tenant="acme"}' in rendered
        sim.run_until(900)
        rendered = server.obs.metrics.render()
        assert 'pixels_activity_queries{state="billed"} 1' in rendered
        # The in-flight projection series zeroes once the query bills.
        assert 'pixels_activity_projected_dollars{tenant="acme"} 0' in rendered

    def test_rover_activity_endpoint(self, turbo_env):
        from repro.nl2sql import CodesService
        from repro.rover import RoverServer, UserStore

        sim, store, catalog, config, coordinator, server = turbo_env
        users = UserStore()
        users.register("u", "p", {"tpch"})
        rover = RoverServer(users, catalog, CodesService(), server)
        token = rover.login("u", "p")
        # Without observability the endpoints render empty, not crash.
        assert rover.export(token, "activity") == ""
        assert rover.export(token, "projections") == ""

    def test_pixelsdb_facade_surfaces(self):
        from repro import CapturePolicy, PixelsDB

        db = PixelsDB(
            observe=True,
            seed=3,
            capture=CapturePolicy(capture_downgrades=True),
            tenant_budgets={"acme": 1e-9},
            guard=GuardPolicy(budget_action="alert", deadline_action=None),
        )
        db.load_tpch("tpch", scale=0.05)
        db.submit("tpch", HEAVY, ServiceLevel.RELAXED, tenant="acme")
        db.run_to_completion()
        activity = db.obs.activity.snapshot()
        assert activity["states"] == {"billed": 1}
        assert json.loads(db.export("activity")) == activity
        report = db.obs.activity.projection_report()
        assert report["queries"] == 1
        audit = db.guard_audit()
        assert audit and audit[0]["schema"] == "tpch"
        assert audit[0]["rule"] == "budget"
        assert db.export("guard_audit").strip()
        # The guard's alert joined the engine's alert timeline.
        assert any(
            e.rule == "projection_guard_budget" for e in db.obs.alerts.events
        )

    def test_dashboard_renders_active_queries_panel(self):
        from repro import PixelsDB

        db = PixelsDB(observe=True, seed=3)
        db.load_tpch("tpch", scale=0.05)
        db.submit("tpch", HEAVY, ServiceLevel.RELAXED, tenant="acme")
        db.run_to_completion()
        html = db.dashboard_html()
        assert "Active queries" in html
        assert 'class="pbar"' in html
        text = db.dashboard_text()
        assert "active queries" in text
        assert "billed" in text


class TestCapturePolicyDowngrade:
    def test_downgraded_query_captured_when_enabled(self):
        from repro.core.scheduler import AdmissionPolicy
        from repro.obs.journal import CapturePolicy

        sim, _, server = observed_env(
            capture=CapturePolicy(capture_downgrades=True),
            admission=AdmissionPolicy(downgrade_queue_depth=1),
        )
        for _ in range(12):  # saturate: later relaxed queries hold
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert held.dispatched_at is None  # queue depth is now >= 1
        victim = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert victim.downgraded  # admission pressure-downgraded it
        assert victim.level is ServiceLevel.BEST_EFFORT
        sim.run_until(7200)
        assert victim.status is QueryStatus.FINISHED
        downgraded = [
            c
            for c in server.obs.journal.captures()
            if "downgrade" in c.get("reasons", ())
        ]
        captured_ids = {c["query_id"] for c in downgraded}
        assert victim.query_id in captured_ids
        # Capture-on-downgrade only ever fires for demoted queries.
        for query_id in captured_ids:
            assert server.query(query_id).downgraded

    def test_downgrade_not_captured_by_default(self):
        from repro.obs.journal import CapturePolicy

        policy = CapturePolicy()
        assert policy.capture_downgrades is False
