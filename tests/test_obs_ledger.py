"""Metering ledger and per-tenant spend accounting tests."""

import json

import pytest

from repro import PixelsDB, ServiceLevel
from repro.obs.ledger import (
    AXES,
    MeterLedger,
    load_events_jsonl,
)
from repro.obs.spend import SpendAccountant, budget_rules


class TestMeterLedger:
    def test_charge_query_emits_one_event_per_axis(self):
        ledger = MeterLedger()
        events = ledger.charge_query(
            "q1",
            axes={"bandwidth": 60, "compute": 30, "requests": 8, "fixed": 2},
            billed_nanodollars=100,
            tenant="t",
            level="immediate",
            venue="vm",
        )
        assert [e.axis for e in events] == list(AXES)
        assert sum(e.nanodollars for e in events) == 100
        assert all(e.billed_nanodollars == 100 for e in events)
        assert ledger.net_nanodollars("q1") == 100

    def test_append_only_monotonic_seq_and_ts(self):
        now = [0.0]
        ledger = MeterLedger(clock=lambda: now[0])
        ledger.charge("a", axis="fixed", nanodollars=1)
        now[0] = 5.0
        ledger.charge("b", axis="fixed", nanodollars=2)
        seqs = [e.seq for e in ledger.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert [e.ts for e in ledger.events()] == [0.0, 5.0]

    def test_void_appends_negating_events_never_deletes(self):
        ledger = MeterLedger()
        ledger.charge_query(
            "q1",
            axes={"bandwidth": 7, "compute": 3, "requests": 0, "fixed": 0},
            billed_nanodollars=10,
        )
        before = len(ledger)
        voids = ledger.void("q1", reason="cancelled")
        assert len(ledger) == before + len(voids)  # nothing removed
        assert all(v.kind == "void" for v in voids)
        assert ledger.net_nanodollars("q1") == 0
        assert ledger.voided_query_ids() == ["q1"]

    def test_void_without_charges_leaves_tombstone(self):
        ledger = MeterLedger()
        voids = ledger.void("ghost", tenant="t", reason="cancelled_held")
        assert len(voids) == 1
        assert voids[0].nanodollars == 0
        assert voids[0].reason == "cancelled_held"
        assert "ghost" in ledger.voided_query_ids()

    def test_rejects_unknown_axis_and_account(self):
        ledger = MeterLedger()
        with pytest.raises(ValueError):
            ledger.charge("q", axis="gpu", nanodollars=1)
        with pytest.raises(ValueError):
            ledger.charge("q", axis="fixed", nanodollars=1, account="bank")

    def test_jsonl_export_round_trips(self):
        ledger = MeterLedger()
        ledger.charge_query(
            "q1",
            axes={"bandwidth": 5, "compute": 0, "requests": 0, "fixed": 1},
            billed_nanodollars=6,
            tenant="t",
            level="relaxed",
            venue="cf",
            bytes_scanned=1234,
            data_inflation=2.0,
            price_per_tb=1.0,
        )
        ledger.void("q1")
        text = ledger.export_jsonl()
        restored = load_events_jsonl(text)
        assert restored == ledger.events()

    def test_running_totals_fold_every_append(self):
        ledger = MeterLedger()
        ledger.charge("q", axis="fixed", nanodollars=3, tenant="t", level="x")
        ledger.charge(
            "q", axis="compute", nanodollars=8, account="provider", venue="vm"
        )
        ledger.void("q")
        ledger.void("held", tenant="t", level="y")
        assert dict(ledger.user_totals) == {("t", "x"): 0, ("t", "y"): 0}
        assert dict(ledger.provider_totals) == {"vm": 8}
        assert ledger.voids == 2
        assert ledger.total_nanodollars("provider") == 8
        with pytest.raises(TypeError):
            ledger.user_totals[("t", "x")] = 1  # read-only


class TestSpendAccountant:
    def _fed(self):
        ledger = MeterLedger()
        return ledger, SpendAccountant(ledger, budgets={"acme": 1e-8})

    def test_aggregates_by_tenant_and_level(self):
        ledger, spend = self._fed()
        ledger.charge_query(
            "q1",
            axes={"bandwidth": 50, "compute": 0, "requests": 0, "fixed": 0},
            billed_nanodollars=50,
            tenant="acme",
            level="immediate",
        )
        ledger.charge_query(
            "q2",
            axes={"bandwidth": 7, "compute": 0, "requests": 0, "fixed": 0},
            billed_nanodollars=7,
            tenant="acme",
            level="relaxed",
        )
        ledger.charge_query(
            "q3",
            axes={"bandwidth": 3, "compute": 0, "requests": 0, "fixed": 0},
            billed_nanodollars=3,
            tenant="beta",
            level="relaxed",
        )
        assert spend.tenants() == ["acme", "beta"]
        assert spend.tenant_nanodollars("acme") == 57
        assert spend.by_level("acme") == {"immediate": 50, "relaxed": 7}
        assert spend.over_budget() == ["acme"]  # 57 nano$ > 10 nano$

    def test_voids_subtract_from_spend(self):
        ledger, spend = self._fed()
        ledger.charge_query(
            "q1",
            axes={"bandwidth": 50, "compute": 0, "requests": 0, "fixed": 0},
            billed_nanodollars=50,
            tenant="acme",
            level="immediate",
        )
        ledger.void("q1")
        assert spend.tenant_nanodollars("acme") == 0
        assert spend.over_budget() == []
        assert spend.report()["voids"] == 4  # one negating event per axis

    def test_provider_account_tracked_per_venue(self):
        ledger, spend = self._fed()
        ledger.charge(
            "q1", axis="compute", nanodollars=900, account="provider",
            venue="vm",
        )
        ledger.charge(
            "q2", axis="compute", nanodollars=100, account="provider",
            venue="cf",
        )
        assert spend.provider_nanodollars() == {"cf": 100, "vm": 900}
        # Provider spend never pollutes tenant totals.
        assert spend.tenants() == []

    def test_report_json_is_byte_stable(self):
        ledger, spend = self._fed()
        ledger.charge("q", axis="fixed", nanodollars=5, tenant="t")
        assert spend.export_json() == spend.export_json()
        payload = json.loads(spend.export_json())
        assert payload["tenants"][0]["tenant"] == "t"

    def test_budget_rules_target_tenant_labelled_metric(self):
        rules = budget_rules({"b": 2.0, "a": 1.0})
        assert [r.name for r in rules] == ["TenantBudget:a", "TenantBudget:b"]
        assert all(
            r.metric == "pixels_tenant_billed_dollars_total" for r in rules
        )
        assert rules[0].labels == (("tenant", "a"),)


class TestTenantThreading:
    """tenant= flows from submit into every observability surface."""

    @pytest.fixture(scope="class")
    def observed_db(self):
        db = PixelsDB(observe=True, seed=5, tenant_budgets={"acme": 1e-9})
        db.load_tpch("tpch", scale=0.02)
        db.submit(
            "tpch",
            "SELECT count(*) FROM orders",
            ServiceLevel.IMMEDIATE,
            tenant="acme",
        )
        db.submit("tpch", "SELECT count(*) FROM customer", ServiceLevel.RELAXED)
        db.run_to_completion()
        db.run(60.0)  # at least one scrape, so budget alerts evaluate
        return db

    def test_ledger_events_carry_tenant(self, observed_db):
        tenants = {
            e.tenant
            for e in observed_db.obs.ledger.events()
            if e.account == "user"
        }
        assert tenants == {"acme", "default"}

    def test_statement_store_keyed_by_tenant(self, observed_db):
        assert {"acme", "default"} <= {
            e.tenant for e in observed_db.obs.statements.entries()
        }

    def test_journal_submit_event_carries_tenant(self, observed_db):
        submits = [
            r
            for r in observed_db.obs.journal.records()
            if r["event"] == "submit"
        ]
        assert {r["tenant"] for r in submits} == {"acme", "default"}

    def test_root_span_carries_tenant(self, observed_db):
        tracer = observed_db.obs.tracer
        attrs = [
            span.attributes
            for qid in tracer.trace_ids()
            for span in tracer.spans(qid)
            if span.name == "query"
        ]
        assert any(a.get("tenant") == "acme" for a in attrs)

    def test_tenant_billed_metric_guarded_by_cardinality(self, observed_db):
        counter = observed_db.obs.metrics.counter(
            "pixels_tenant_billed_dollars_total", ""
        )
        assert counter.value(tenant="acme") > 0.0

    def test_soft_budget_alert_fires(self, observed_db):
        assert "TenantBudget:acme" in observed_db.obs.alerts.firing()

    def test_spend_report_flags_over_budget_tenant(self, observed_db):
        rows = {
            row["tenant"]: row
            for row in observed_db.obs.spend.report()["tenants"]
        }
        assert rows["acme"]["over_budget"] is True
        assert rows["default"]["over_budget"] is False

    def test_dashboard_renders_spend_panel(self, observed_db):
        html = observed_db.dashboard_html()
        assert "Spend by tenant" in html
        assert "acme" in html
        text = observed_db.dashboard_text()
        assert "spend by tenant" in text
        assert "OVER BUDGET" in text


class TestRoverBillingEndpoints:
    def test_rover_threads_tenant_and_serves_ledger_and_spend(self):
        from repro import UserStore

        db = PixelsDB(observe=True, seed=7)
        db.load_tpch("tpch", scale=0.02)
        users = UserStore()
        users.register("ana", "pw", {"tpch"}, tenant="analytics")
        rover = db.rover(users, "tpch")
        token = rover.login("ana", "pw")
        rover.select_database(token, "tpch")
        block = rover.ask(token, "How many orders are there?")
        rover.submit_query(token, block.block_id, ServiceLevel.IMMEDIATE)
        db.run_to_completion()

        ledger_text = rover.export(token, "ledger")
        assert ledger_text  # billing left a trail
        events = load_events_jsonl(ledger_text)
        assert any(
            e.tenant == "analytics" for e in events if e.account == "user"
        )
        spend = json.loads(rover.export(token, "spend"))
        assert [row["tenant"] for row in spend["tenants"]] == ["analytics"]
        assert spend["tenants"][0]["nanodollars"] > 0

    def test_rover_tenant_defaults_to_username(self):
        from repro.rover.auth import UserStore

        users = UserStore()
        user = users.register("solo", "pw", set())
        assert user.tenant == "solo"
        assert users.tenant_of("solo") == "solo"

    def test_endpoints_require_session(self):
        from repro import UserStore
        from repro.errors import AuthenticationError

        db = PixelsDB(observe=True, seed=7)
        db.load_tpch("tpch", scale=0.02)
        rover = db.rover(UserStore(), "tpch")
        with pytest.raises(AuthenticationError):
            rover.export("bogus-token", "ledger")
        with pytest.raises(AuthenticationError):
            rover.export("bogus-token", "spend")
