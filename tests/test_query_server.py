"""Tests for the Query Server: service-level semantics (paper §3.2)."""

import pytest

from repro import PixelsDB
from repro.core import QueryStatus, ServiceLevel
from repro.core.scheduler import AdmissionPolicy
from repro.errors import (
    InvalidServiceLevelError,
    NoSuchQueryError,
    ParseError,
    PixelsError,
    QueryRejectedError,
)
from repro.turbo.coordinator import ExecutionVenue

SIMPLE = "SELECT count(*) FROM orders"
HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


class TestServiceLevelEnum:
    def test_cf_enablement(self):
        assert ServiceLevel.IMMEDIATE.cf_enabled
        assert not ServiceLevel.RELAXED.cf_enabled
        assert not ServiceLevel.BEST_EFFORT.cf_enabled

    def test_price_fractions(self):
        assert ServiceLevel.IMMEDIATE.price_fraction == 1.0
        assert ServiceLevel.RELAXED.price_fraction == 0.2
        assert ServiceLevel.BEST_EFFORT.price_fraction == 0.1

    @pytest.mark.parametrize(
        "spelling,expected",
        [
            ("immediate", ServiceLevel.IMMEDIATE),
            ("Relaxed", ServiceLevel.RELAXED),
            ("best-of-effort", ServiceLevel.BEST_EFFORT),
            ("BEST EFFORT", ServiceLevel.BEST_EFFORT),
            ("best_effort", ServiceLevel.BEST_EFFORT),
        ],
    )
    def test_parsing(self, spelling, expected):
        assert ServiceLevel.from_string(spelling) is expected

    def test_parsing_unknown(self):
        with pytest.raises(InvalidServiceLevelError):
            ServiceLevel.from_string("platinum")

    def test_distinct_display_colors(self):
        colors = {level.display_color for level in ServiceLevel}
        assert len(colors) == 3

    def test_status_terminality(self):
        assert QueryStatus.FINISHED.is_terminal
        assert QueryStatus.FAILED.is_terminal
        assert not QueryStatus.PENDING.is_terminal
        assert not QueryStatus.RUNNING.is_terminal


class TestImmediateLevel:
    def test_executes_immediately_even_under_load(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        for _ in range(8):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        record = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        sim.run_until(0.001)
        assert record.status in (QueryStatus.RUNNING, QueryStatus.FINISHED)
        sim.run_until(300)
        assert record.status is QueryStatus.FINISHED
        assert record.pending_time_s == 0.0

    def test_uses_cf_under_load(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        for _ in range(8):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        record = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        sim.run_until(300)
        assert record.execution.venue is ExecutionVenue.CF

    def test_runs_on_vm_when_idle(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit(SIMPLE, ServiceLevel.IMMEDIATE)
        sim.run_until(60)
        assert record.execution.venue is ExecutionVenue.VM


class TestRelaxedLevel:
    def test_never_uses_cf(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(600)
        assert coordinator.cf_service.invocations == []

    def test_immediate_dispatch_when_below_high_watermark(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit(SIMPLE, ServiceLevel.RELAXED)
        assert record.dispatched_at == sim.now
        sim.run_until(60)
        assert record.status is QueryStatus.FINISHED

    def test_held_when_above_high_watermark(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for _ in range(12):  # push per-worker concurrency over 5
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert held.dispatched_at is None
        assert server.queued_relaxed >= 1

    def test_grace_period_bounds_server_queueing(self, turbo_env):
        sim, _, _, config, _, server = turbo_env
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(config.grace_period_s + config.scheduler_interval_s + 1)
        assert held.dispatched_at is not None
        assert (
            held.dispatched_at - held.submitted_at
            <= config.grace_period_s + config.scheduler_interval_s
        )

    def test_simultaneous_holds_expire_in_submission_order(
        self, turbo_env, monkeypatch
    ):
        sim, _, _, config, coordinator, server = turbo_env
        # Saturated for good: only the grace deadline lets a hold out.
        monkeypatch.setattr(coordinator, "below_high_watermark", lambda: False)
        held = [
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant=tenant)
            for tenant in ("c", "a", "d", "b", "a")
        ]
        sim.run_until(config.grace_period_s + config.scheduler_interval_s + 1)
        (expired_at,) = {record.dispatched_at for record in held}
        assert expired_at >= config.grace_period_s
        order = [execution.query_id for execution in coordinator.executions]
        assert order == [record.query_id for record in held]

    def test_all_relaxed_eventually_finish(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        records = [server.submit(HEAVY, ServiceLevel.RELAXED) for _ in range(15)]
        sim.run_until(900)
        assert all(r.status is QueryStatus.FINISHED for r in records)


class TestBestEffortLevel:
    def test_dispatched_only_below_low_watermark(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        # Load the cluster just above the low watermark.
        blockers = [server.submit(HEAVY, ServiceLevel.RELAXED) for _ in range(3)]
        best = server.submit(HEAVY, ServiceLevel.BEST_EFFORT)
        assert best.dispatched_at is None
        sim.run_until(600)  # blockers finish; cluster idles
        assert best.status is QueryStatus.FINISHED

    def test_runs_immediately_when_idle(self, turbo_env):
        """§3.2: even a best-of-effort query executes immediately if the
        VM cluster is available."""
        sim, _, _, _, _, server = turbo_env
        record = server.submit(SIMPLE, ServiceLevel.BEST_EFFORT)
        assert record.dispatched_at == sim.now
        sim.run_until(60)
        assert record.status is QueryStatus.FINISHED

    def test_never_uses_cf(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        for _ in range(10):
            server.submit(HEAVY, ServiceLevel.BEST_EFFORT)
        sim.run_until(900)
        assert coordinator.cf_service.invocations == []


class TestBillingAndStatus:
    def test_price_uses_level_rate(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        immediate = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        sim.run_until(200)
        relaxed = server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(400)
        best = server.submit(HEAVY, ServiceLevel.BEST_EFFORT)
        sim.run_until(600)
        assert immediate.price > 0
        assert relaxed.price == pytest.approx(immediate.price * 0.2)
        assert best.price == pytest.approx(immediate.price * 0.1)

    def test_price_quote_matches_paper(self, turbo_env):
        _, _, _, _, _, server = turbo_env
        assert server.price_quote(ServiceLevel.IMMEDIATE) == 5.0
        assert server.price_quote(ServiceLevel.RELAXED) == 1.0
        assert server.price_quote(ServiceLevel.BEST_EFFORT) == 0.5

    def test_result_limit_truncates(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit(
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey",
            ServiceLevel.IMMEDIATE,
            result_limit=5,
        )
        sim.run_until(120)
        assert len(record.result_rows()) == 5

    def test_failed_query_reports_error(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit("SELECT nope FROM orders", ServiceLevel.IMMEDIATE)
        sim.run_until(10)
        assert record.status is QueryStatus.FAILED
        assert "nope" in record.error

    @pytest.mark.parametrize("observe", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("sql", ["SELECT 1e+ FROM orders", "SELECT \u00b2 FROM orders"])
    def test_malformed_number_fails_with_the_parse_error(self, sql, observe):
        db = PixelsDB(seed=2, observe=observe)
        db.load_tpch("tpch", scale=0.01)
        record = db.submit("tpch", sql)
        db.run_to_completion()
        assert record.status is QueryStatus.FAILED
        assert record.error.startswith("malformed number near ")
        with pytest.raises(ParseError):
            db.coordinator("tpch").statement(sql).raise_parse_error()

    def test_status_counts(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        server.submit(SIMPLE, ServiceLevel.IMMEDIATE)
        server.submit("SELECT broken FROM orders", ServiceLevel.IMMEDIATE)
        sim.run_until(120)
        counts = server.status_counts()
        assert counts[QueryStatus.FINISHED] == 1
        assert counts[QueryStatus.FAILED] == 1

    def test_total_billed_sums_finished(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(300)
        assert server.total_billed() > 0

    def test_query_lookup(self, turbo_env):
        _, _, _, _, _, server = turbo_env
        record = server.submit(SIMPLE, ServiceLevel.IMMEDIATE, query_id="mine")
        assert server.query("mine") is record
        with pytest.raises(NoSuchQueryError):
            server.query("ghost")

    def test_on_finish_callback(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        finished = []
        server.submit(
            SIMPLE, ServiceLevel.IMMEDIATE, on_finish=lambda r: finished.append(r)
        )
        sim.run_until(60)
        assert len(finished) == 1

    def test_queue_capacity_rejection(self, turbo_env):
        sim, _, _, config, coordinator, server = turbo_env
        server._max_queue_length = 8
        with pytest.raises(QueryRejectedError):
            # 6 dispatch straight to the VM queue (below high watermark),
            # then 8 fill the relaxed hold queue, the next is rejected.
            for _ in range(20):
                server.submit(HEAVY, ServiceLevel.RELAXED)
        assert server.queued_relaxed == 8


class TestQueryIds:
    """A query id names one server record; the server refuses a taken
    explicit id before anything moves, and its own ids skip taken ones."""

    @pytest.fixture
    def db(self):
        db = PixelsDB(observe=True, seed=5)
        db.load_tpch("tpch", scale=0.01)
        return db

    def test_generated_id_skips_an_explicit_one(self, db):
        server = db.query_server("tpch")
        first = server.submit(
            "SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE, query_id="sq-1"
        )
        second = server.submit("SELECT COUNT(*) FROM region", ServiceLevel.IMMEDIATE)
        assert second.query_id == "sq-2"
        db.run_to_completion()  # returns: no phantom record stays pending
        assert [q.query_id for q in server.queries] == ["sq-1", "sq-2"]
        assert first.price_nanodollars > 0 and second.price_nanodollars > 0
        assert server.total_billed_nanodollars() == (
            first.price_nanodollars + second.price_nanodollars
        )
        assert server.scheduler_snapshot()["tenant_live"] == {}

    def test_explicit_duplicate_is_refused_before_anything_changes(self, db):
        server = db.query_server("tpch")
        server.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
        held = server.submit(
            "SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT, query_id="mine"
        )
        assert held.status is QueryStatus.PENDING

        def state():
            return (
                list(server.queries),
                server.scheduler_snapshot(),
                db.obs.activity.snapshot(),
                db.export("journal"),
            )

        before = state()
        with pytest.raises(PixelsError, match="duplicate query id 'mine'"):
            server.submit(
                "SELECT COUNT(*) FROM orders", ServiceLevel.IMMEDIATE, query_id="mine"
            )
        assert state() == before
        db.run_to_completion()
        assert server.query("mine") is held and held.status is QueryStatus.FINISHED
        assert server.scheduler_snapshot()["tenant_live"] == {}

    def test_servers_sharing_a_bundle_refuse_each_others_ids(self, db):
        db.load_tpch("other", scale=0.01)
        first, second = db.query_server("tpch"), db.query_server("other")
        first.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE, query_id="q")
        first.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE, query_id="sq-2")
        with pytest.raises(PixelsError, match="duplicate query id 'q'"):
            second.submit("SELECT COUNT(*) FROM region", ServiceLevel.IMMEDIATE, query_id="q")
        generated = [
            second.submit("SELECT COUNT(*) FROM region", ServiceLevel.IMMEDIATE).query_id
            for _ in range(2)
        ]
        assert generated == ["sq-1", "sq-3"]  # "sq-2" is the first server's
        db.run_to_completion()
        owners = [row["query_id"] for row in db.obs.activity.snapshot()["queries"]]
        assert sorted(owners) == ["q", "sq-1", "sq-2", "sq-3"]

    def test_an_id_a_coordinator_ran_directly_is_refused(self, db):
        coordinator = db.coordinator("tpch")
        coordinator.submit("SELECT COUNT(*) FROM nation", cf_enabled=False, query_id="q")
        db.run_to_completion()
        server = db.query_server("tpch")
        with pytest.raises(PixelsError, match="duplicate query id 'q'"):
            server.submit("SELECT COUNT(*) FROM region", ServiceLevel.IMMEDIATE, query_id="q")
        assert server.queries == []

    def test_a_rejected_id_is_refused_before_admission_moves(self):
        db = PixelsDB(observe=True, seed=5)
        db.load_tpch("tpch", scale=0.01)
        server = db.query_server("tpch", admission=AdmissionPolicy(tenant_quota=1))
        server.submit("SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT)
        with pytest.raises(QueryRejectedError):
            server.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE, query_id="r")
        with pytest.raises(NoSuchQueryError):
            server.query("r")  # the record is gone; its entry and trace are not
        before = (server.scheduler_snapshot(), db.obs.activity.snapshot(), db.export("journal"))
        with pytest.raises(PixelsError, match="duplicate query id 'r'"):
            server.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE, query_id="r")
        assert (server.scheduler_snapshot(), db.obs.activity.snapshot(), db.export("journal")) == before
