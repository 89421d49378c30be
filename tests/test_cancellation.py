"""Cancellation tests: server queues, VM queue, running queries, CF."""

import pytest

from repro.core import QueryStatus, ServiceLevel
from repro.turbo.coordinator import ExecutionVenue

HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


class TestServerQueueCancellation:
    def test_cancel_held_relaxed_query(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for _ in range(12):  # push over the high watermark
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert held.dispatched_at is None
        queued_before = server.queued_relaxed
        assert server.cancel(held.query_id) is True
        assert held.status is QueryStatus.FAILED
        assert held.error == "cancelled by user"
        assert server.queued_relaxed == queued_before - 1
        sim.run_until(900)
        assert held.status is QueryStatus.FAILED  # never resurrected

    def test_cancel_held_best_effort_query(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for _ in range(3):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.BEST_EFFORT)
        assert held.dispatched_at is None
        assert server.cancel(held.query_id) is True
        assert server.queued_best_effort == 0
        sim.run_until(900)
        assert held.status is QueryStatus.FAILED

    def test_cancel_fires_on_finish_callback(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        finished = []
        held = server.submit(
            HEAVY, ServiceLevel.RELAXED, on_finish=lambda r: finished.append(r)
        )
        server.cancel(held.query_id)
        assert finished == [held]


class TestVmCancellation:
    def test_cancel_vm_queued_query(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        records = [server.submit(HEAVY, ServiceLevel.RELAXED) for _ in range(4)]
        victim = records[-1]
        assert victim.status is QueryStatus.PENDING  # waiting in VM queue
        queue_before = coordinator.vm_cluster.queue_length
        assert server.cancel(victim.query_id) is True
        assert coordinator.vm_cluster.queue_length == queue_before - 1
        assert victim.status is QueryStatus.FAILED
        sim.run_until(900)
        others = [r for r in records if r is not victim]
        assert all(r.status is QueryStatus.FINISHED for r in others)

    def test_cancel_running_query_frees_slot(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(0.001)
        assert record.status is QueryStatus.RUNNING
        running_before = coordinator.vm_cluster.running_tasks
        assert server.cancel(record.query_id) is True
        assert coordinator.vm_cluster.running_tasks == running_before - 1
        assert record.status is QueryStatus.FAILED
        # The freed slot is immediately usable.
        follow_up = server.submit(HEAVY, ServiceLevel.RELAXED)
        sim.run_until(900)
        assert follow_up.status is QueryStatus.FINISHED

    def test_cancelled_query_never_completes(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        server.cancel(record.query_id)
        sim.run_until(900)
        assert record.status is QueryStatus.FAILED
        assert record.result_rows() == []
        assert record.price == 0.0


class TestCfCancellation:
    def test_cancel_cf_query_marks_failed_but_bills_invocation(self, turbo_env):
        sim, _, _, _, coordinator, server = turbo_env
        for _ in range(4):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        record = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        assert record.execution.venue is ExecutionVenue.CF
        assert server.cancel(record.query_id) is True
        assert record.status is QueryStatus.FAILED
        sim.run_until(900)
        # The function fan-out already launched: it runs and is billed.
        assert record.status is QueryStatus.FAILED
        assert coordinator.cf_service.provider_cost() > 0

    @pytest.mark.parametrize("observe", [False, True])
    def test_cancel_mid_invocation_launches_nothing_more(self, observe):
        """A failing invocation that returns after its query was cancelled
        relaunches nothing: the cancel stands, the query is counted once,
        and its trace gains no span after the root closed."""
        from repro.core import QueryServer
        from repro.obs import Instrumentation
        from repro.sim import Simulator
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore
        from repro.turbo import Coordinator, TurboConfig
        from repro.turbo.faults import FaultConfig
        from repro.workloads import TpchGenerator, load_dataset

        sim = Simulator(seed=11)
        store, catalog = ObjectStore(), Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
        config = TurboConfig.fast()
        obs = (
            Instrumentation.create(clock=lambda: sim.now)
            if observe
            else Instrumentation.disabled()
        )
        coordinator = Coordinator(
            sim, config, catalog, store, "tpch",
            faults=FaultConfig(cf_failure_rate=1.0, max_retries=3), obs=obs,
        )
        server = QueryServer(sim, coordinator, config)
        for _ in range(4):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        record = server.submit(HEAVY, ServiceLevel.IMMEDIATE)
        assert record.execution.venue is ExecutionVenue.CF
        launches = []
        invoke = coordinator.cf_service.invoke

        def counting(*args, **kwargs):
            launches.append(sim.now)
            return invoke(*args, **kwargs)

        coordinator.cf_service.invoke = counting
        billed = record.execution.provider_cost
        assert billed > 0  # the invocation in flight is paid for
        assert server.cancel(record.query_id) is True
        sim.run_until(900)
        assert launches == []
        assert record.execution.error == "cancelled by user"
        assert record.execution.provider_cost == billed
        assert coordinator.cf_service.provider_cost() == billed
        assert record.bill is None and record.price_nanodollars == 0
        if observe:
            finished = obs.metrics.get("pixels_queries_total")
            assert finished.value(venue="cf", status="cancelled") == 1
            assert finished.value(venue="cf", status="error") == 0
            spans = obs.tracer.spans(record.query_id)
            (root,) = [span for span in spans if span.name == "query"]
            assert root.status == "cancelled"
            assert [s.name for s in spans if s.start > root.end] == []


class TestCancellationEdges:
    def test_cancel_finished_query_returns_false(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit("SELECT count(*) FROM orders", ServiceLevel.IMMEDIATE)
        sim.run_until(120)
        assert record.status is QueryStatus.FINISHED
        assert server.cancel(record.query_id) is False
        assert record.status is QueryStatus.FINISHED

    def test_cancel_unknown_query_raises(self, turbo_env):
        from repro.errors import NoSuchQueryError

        _, _, _, _, _, server = turbo_env
        with pytest.raises(NoSuchQueryError):
            server.cancel("ghost")

    def test_double_cancel_is_false(self, turbo_env):
        sim, _, _, _, _, server = turbo_env
        record = server.submit(HEAVY, ServiceLevel.RELAXED)
        assert server.cancel(record.query_id) is True
        assert server.cancel(record.query_id) is False

    def test_a_failure_that_says_cancelled_is_still_an_error(self):
        """The terminal status comes from who ended the query, never from
        the wording of the message (which may quote user SQL)."""
        from repro import PixelsDB

        db = PixelsDB(observe=True, seed=5)
        db.load_tpch("tpch", scale=0.01)
        failed = db.submit("tpch", "SELECT cancelled FROM nation")
        db.run_to_completion()
        assert "cancelled" in failed.error and not failed.cancelled
        finished = db.obs.metrics.get("pixels_queries_total")
        assert finished.value(venue="none", status="error") == 1
        assert finished.value(venue="none", status="cancelled") == 0
        (root,) = [
            span for span in db.obs.tracer.spans(failed.query_id)
            if span.name == "query"
        ]
        assert root.status == "error"


class TestRoverCancellation:
    def test_cancel_via_result_block(self, turbo_env):
        from repro.nl2sql import CodesService
        from repro.rover import RoverServer, UserStore

        sim, store, catalog, config, coordinator, server = turbo_env
        users = UserStore()
        users.register("u", "p", {"tpch"})
        rover = RoverServer(users, catalog, CodesService(), server)
        token = rover.login("u", "p")
        rover.select_database(token, "tpch")
        block = rover.ask(token, "How many orders are there?")
        result = rover.submit_query(token, block.block_id, ServiceLevel.RELAXED)
        assert rover.cancel_query(token, result.result_id) is True
        expanded = rover.expand_result(token, result.result_id)
        assert expanded["status"] == "failed"
        assert "cancelled" in expanded["error"]


class TestCancellationBilling:
    """Cancelled queries bill exactly $0 and leave a voided audit trail
    in the metering ledger that the reconciler accepts."""

    def _observed_env(self):
        from repro.core import QueryServer
        from repro.obs import Instrumentation
        from repro.sim import Simulator
        from repro.turbo import Coordinator, TurboConfig
        from repro.workloads import TpchGenerator, load_dataset
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore

        sim = Simulator(seed=11)
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
        config = TurboConfig.fast()
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
        server = QueryServer(sim, coordinator, config)
        return sim, server

    def test_cancelled_held_query_bills_zero_with_void_event(self):
        sim, server = self._observed_env()
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        held = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        assert server.cancel(held.query_id) is True
        sim.run_until(900)
        assert held.status is QueryStatus.FAILED
        assert held.price == 0.0
        assert held.price_nanodollars == 0
        ledger = server.obs.ledger
        assert held.query_id in ledger.voided_query_ids()
        voids = [
            e for e in ledger.events_for(held.query_id) if e.kind == "void"
        ]
        assert voids, "cancellation left no void event"
        assert voids[0].tenant == "acme"
        assert voids[0].reason == "cancelled_held"
        assert ledger.net_nanodollars(held.query_id) == 0

    def test_cancelled_dispatched_query_voids_and_reconciles(self):
        from repro.obs.reconcile import reconcile_server

        sim, server = self._observed_env()
        records = [
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
            for _ in range(4)
        ]
        victim = records[-1]
        assert victim.dispatched_at is not None  # in the VM pipeline
        assert server.cancel(victim.query_id) is True
        sim.run_until(900)
        assert victim.status is QueryStatus.FAILED
        assert victim.error == "cancelled by user"
        assert victim.price == 0.0
        assert victim.price_nanodollars == 0
        ledger = server.obs.ledger
        assert victim.query_id in ledger.voided_query_ids()
        assert ledger.net_nanodollars(victim.query_id) == 0
        # The survivors billed normally and the whole ledger reconciles:
        # cancelled queries net zero, finished ones match their price.
        report = reconcile_server(server)
        assert report.ok, report.render()
        assert server.total_billed_nanodollars() == sum(
            r.price_nanodollars for r in records
        )
        assert all(
            r.price_nanodollars > 0 for r in records if r is not victim
        )

    def test_cancelled_query_excluded_from_tenant_spend(self):
        sim, server = self._observed_env()
        kept = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        sim.run_until(900)  # let it finish before the next one is held
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED, tenant="other")
        held = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        server.cancel(held.query_id)
        sim.run_until(1800)
        assert kept.status is QueryStatus.FINISHED
        spend = server.obs.spend
        assert spend.tenant_nanodollars("acme") == kept.price_nanodollars
        assert spend.report()["voids"] >= 1


class TestCancellationActivity:
    """The live-activity registry's view of a cancellation: the entry
    lands in the terminal ``cancelled`` state, its progress freezes at
    the fraction it died at, and the books still balance."""

    def _observed_env(self):
        from repro.core import QueryServer
        from repro.obs import Instrumentation
        from repro.sim import Simulator
        from repro.turbo import Coordinator, TurboConfig
        from repro.workloads import TpchGenerator, load_dataset
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore

        sim = Simulator(seed=11)
        store = ObjectStore()
        catalog = Catalog()
        # Small row groups: the lineitem scan spans many morsels, so a
        # mid-pipeline cancel lands at a partial progress fraction.
        load_dataset(
            store,
            catalog,
            "tpch",
            TpchGenerator(scale=0.05).tables(),
            rows_per_group=256,
        )
        config = TurboConfig.fast()
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
        server = QueryServer(sim, coordinator, config)
        return sim, server

    def test_cancel_mid_pipeline_freezes_partial_progress(self):
        from repro.obs.reconcile import reconcile_server

        sim, server = self._observed_env()
        record = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        entry = server.obs.activity.entry(record.query_id)
        assert entry.exec_started_at is not None  # idle cluster: runs now
        sim.run_until(entry.exec_started_at + entry.exec_duration_s * 0.5)
        assert record.status is QueryStatus.RUNNING
        snapshot = server.obs.activity.snapshot()
        row = next(
            r for r in snapshot["queries"] if r["query_id"] == record.query_id
        )
        assert 0.0 < row["progress"] < 1.0
        midflight = row["progress"]
        assert server.cancel(record.query_id) is True
        sim.run_until(900)
        assert record.status is QueryStatus.FAILED
        entry = server.obs.activity.entry(record.query_id)
        assert entry.state == "cancelled"
        row = next(
            r
            for r in server.obs.activity.snapshot()["queries"]
            if r["query_id"] == record.query_id
        )
        assert row["state"] == "cancelled"
        # Progress froze at the cancel instant — never reaches 1.0.
        assert row["progress"] == pytest.approx(midflight)
        assert row["progress"] <= 1.0
        # The ledger voided the in-flight charges and still reconciles.
        ledger = server.obs.ledger
        assert record.query_id in ledger.voided_query_ids()
        assert ledger.net_nanodollars(record.query_id) == 0
        report = reconcile_server(server)
        assert report.ok, report.render()

    def test_cancel_held_query_reports_cancelled_held(self):
        sim, server = self._observed_env()
        for _ in range(12):
            server.submit(HEAVY, ServiceLevel.RELAXED)
        held = server.submit(HEAVY, ServiceLevel.RELAXED, tenant="acme")
        entry = server.obs.activity.entry(held.query_id)
        assert entry.state == "queued"
        assert server.cancel(held.query_id) is True
        entry = server.obs.activity.entry(held.query_id)
        assert entry.state == "cancelled"
        assert entry.detail == "cancelled_held"
        sim.run_until(900)
        row = next(
            r
            for r in server.obs.activity.snapshot()["queries"]
            if r["query_id"] == held.query_id
        )
        assert row["state"] == "cancelled"
        assert row["progress"] == 0.0  # never ran
        assert row["detail"] == "cancelled_held"
        # Terminal states are stable: no later transition revives it.
        events = [
            row["event"]
            for row in server.obs.journal.records()
            if row["query_id"] == held.query_id
        ]
        assert events[-1] == "cancel"
        assert events.count("cancel") == 1
        assert server.obs.activity.entry(held.query_id).state == "cancelled"
