"""Tests for shared-scan batch optimization (paper §5's opportunity)."""

import pytest

from repro.core import QueryServer, QueryStatus, ServiceLevel
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.engine.executor import QueryExecutor
from repro.sim import Simulator
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.batching import execute_shared_batch, union_columns

# Overlapping column sets (all touch l_extendedprice) — the shape of a
# reporting batch, where scan sharing actually saves bytes.
SQLS = [
    "SELECT l_returnflag, sum(l_extendedprice) FROM lineitem "
    "GROUP BY l_returnflag",
    "SELECT sum(l_extendedprice) FROM lineitem WHERE l_discount > 0.05",
    "SELECT l_shipmode, sum(l_extendedprice) FROM lineitem "
    "GROUP BY l_shipmode",
    "SELECT count(*) FROM orders WHERE o_totalprice > 1000",
]


@pytest.fixture
def planned(mini_object_store):
    store, catalog = mini_object_store
    # The mini dataset has no lineitem; use TPC-H instead.
    from repro.workloads import TpchGenerator, load_dataset
    from repro.storage.catalog import Catalog
    from repro.storage.object_store import ObjectStore

    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
    planner = Planner(catalog, "tpch")
    optimizer = Optimizer()
    plans = [optimizer.optimize(planner.plan_sql(sql)) for sql in SQLS]
    return store, catalog, plans


class TestSharedScanExecution:
    def test_results_identical_to_individual_execution(self, planned):
        store, catalog, plans = planned
        source = ObjectStoreSource(store)
        individual = [QueryExecutor(source).execute(plan).rows() for plan in plans]
        # Re-plan (executors may cache nothing, but plans hold no state).
        planner = Planner(catalog, "tpch")
        optimizer = Optimizer()
        fresh = [optimizer.optimize(planner.plan_sql(sql)) for sql in SQLS]
        batch = execute_shared_batch(fresh, store, source)
        for got, expected in zip(batch.results, individual):
            assert got.rows() == expected

    def test_shared_tables_fetched_once(self, planned):
        store, catalog, plans = planned
        before = store.metrics.snapshot()
        batch = execute_shared_batch(plans, store, ObjectStoreSource(store))
        delta = store.metrics.delta(before)
        # lineitem shared by three queries: one fetch; orders has a single
        # reader: untouched by sharing, scanned directly.
        assert batch.shared_stats.tables_shared == 1
        assert batch.shared_stats.shared_bytes_scanned > 0
        assert delta.bytes_read < 3 * batch.shared_stats.shared_bytes_scanned

    def test_combined_bytes_are_what_the_store_scanned(self, planned):
        """A member that also reads an unshared table adds only that
        table's bytes to the provider's total, not its shared ones again."""
        store, catalog, plans = planned
        joined = Optimizer().optimize(
            Planner(catalog, "tpch").plan_sql(
                "SELECT count(*) FROM lineitem l JOIN part p "
                "ON l.l_partkey = p.p_partkey"
            )
        )
        before = store.metrics.snapshot()
        batch = execute_shared_batch(plans + [joined], store, ObjectStoreSource(store))
        scanned = store.metrics.delta(before).logical_bytes_scanned
        assert batch.combined.bytes_scanned == scanned
        assert scanned < sum(result.stats.bytes_scanned for result in batch.results)

    def test_union_columns(self, planned):
        _, _, plans = planned
        needed = union_columns(plans)
        lineitem = needed[("tpch", "lineitem")]
        assert {
            "l_returnflag", "l_extendedprice", "l_discount", "l_shipmode",
        } <= lineitem

    def test_savings_reported(self, planned):
        store, catalog, plans = planned
        batch = execute_shared_batch(plans, store, ObjectStoreSource(store))
        # Three queries overlap on l_extendedprice: real byte savings.
        solo = sum(result.stats.bytes_scanned for result in batch.results)
        assert batch.shared_stats.bytes_saved == solo - batch.combined.bytes_scanned
        assert batch.shared_stats.bytes_saved > 0

    def test_savings_are_what_the_members_would_have_scanned_alone(self, planned):
        """Two members reading disjoint columns of one table still save:
        alone, each would read the file footers too.  (Estimating a
        member's solo bytes as its share of the union's columns reported
        0 bytes saved here.)"""
        store, catalog, _ = planned
        planner, optimizer = Planner(catalog, "tpch"), Optimizer()
        plans = [
            optimizer.optimize(planner.plan_sql(sql))
            for sql in (
                "SELECT sum(l_quantity) FROM lineitem",
                "SELECT count(*) FROM lineitem WHERE l_shipmode = 'AIR'",
            )
        ]
        source = ObjectStoreSource(store)
        alone = 0
        for plan in plans:
            before = store.metrics.snapshot()
            QueryExecutor(source).execute(plan)
            alone += store.metrics.delta(before).logical_bytes_scanned
        before = store.metrics.snapshot()
        batch = execute_shared_batch(plans, store, source)
        together = store.metrics.delta(before).logical_bytes_scanned
        assert batch.shared_stats.tables_shared == 1
        assert batch.shared_stats.bytes_saved == alone - together > 0

    def test_single_plan_batch_falls_back(self, planned):
        store, catalog, plans = planned
        batch = execute_shared_batch(plans[:1], store, ObjectStoreSource(store))
        assert batch.shared_stats.tables_shared == 0
        assert batch.results[0].num_rows > 0


class TestCoordinatorBatch:
    def test_batch_occupies_single_slot(self, planned):
        store, catalog, _ = planned
        sim = Simulator()
        config = TurboConfig.fast()
        coordinator = Coordinator(sim, config, catalog, store, "tpch")
        executions = coordinator.submit_shared_batch(SQLS)
        assert coordinator.vm_cluster.running_tasks == 1
        sim.run_until(600)
        assert all(e.succeeded for e in executions)
        rows = executions[0].result.rows()
        assert len(rows) == 3  # three return flags

    def test_bad_member_fails_alone(self, planned):
        store, catalog, _ = planned
        sim = Simulator()
        config = TurboConfig.fast()
        coordinator = Coordinator(sim, config, catalog, store, "tpch")
        executions = coordinator.submit_shared_batch(
            [SQLS[0], "SELECT broken FROM lineitem"]
        )
        sim.run_until(600)
        assert executions[0].succeeded
        assert executions[1].error is not None

    def test_provider_cost_split(self, planned):
        store, catalog, _ = planned
        sim = Simulator()
        config = TurboConfig.fast()
        coordinator = Coordinator(sim, config, catalog, store, "tpch")
        executions = coordinator.submit_shared_batch(SQLS[:3])
        sim.run_until(600)
        costs = {round(e.provider_cost, 12) for e in executions}
        assert len(costs) == 1  # split evenly
        assert costs.pop() > 0


class TestServerBatchMode:
    def _stack(self, batch_best_effort):
        from repro.workloads import TpchGenerator, load_dataset
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore

        sim = Simulator()
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
        config = TurboConfig.fast()
        coordinator = Coordinator(sim, config, catalog, store, "tpch")
        server = QueryServer(
            sim, coordinator, config, batch_best_effort=batch_best_effort
        )
        return sim, coordinator, server

    def _run_backlog(self, batch_best_effort):
        sim, coordinator, server = self._stack(batch_best_effort)
        # Occupy the cluster so best-effort queries queue up...
        blockers = [
            server.submit(SQLS[0], ServiceLevel.RELAXED) for _ in range(3)
        ]
        backlog = [server.submit(sql, ServiceLevel.BEST_EFFORT) for sql in SQLS]
        sim.run_until(1200)
        return coordinator, backlog

    def test_backlog_completes_in_batch_mode(self):
        coordinator, backlog = self._run_backlog(batch_best_effort=True)
        assert all(r.status is QueryStatus.FINISHED for r in backlog)
        assert coordinator.trace.values("batch.bytes_saved")

    def test_batch_mode_reads_fewer_bytes(self):
        unbatched_coord, unbatched = self._run_backlog(batch_best_effort=False)
        batched_coord, batched = self._run_backlog(batch_best_effort=True)
        assert all(r.status is QueryStatus.FINISHED for r in unbatched)
        assert all(r.status is QueryStatus.FINISHED for r in batched)
        # Same answers both ways.
        for a, b in zip(unbatched, batched):
            assert a.result_rows() == b.result_rows()

    def test_batch_mode_off_by_default(self):
        sim, coordinator, server = self._stack(False)
        assert server._batch_best_effort is False


#: One batch over ``orders`` and ``lineitem`` stored in small row groups, so
#: a member's zone maps prune groups and a LIMIT member stops early.
BILLED = [
    "SELECT count(*) FROM orders WHERE o_totalprice > 100000",
    "SELECT o_orderstatus, count(*) FROM orders GROUP BY o_orderstatus",
    "SELECT count(*) FROM orders WHERE o_orderkey < 200",
    "SELECT o_orderkey, o_totalprice FROM orders LIMIT 5",
    "SELECT sum(l_extendedprice) FROM lineitem l JOIN orders o "
    "ON l.l_orderkey = o.o_orderkey WHERE o.o_orderkey < 300",
    "SELECT l_shipmode, count(*) FROM lineitem WHERE l_quantity > 45 "
    "GROUP BY l_shipmode",
]
PRUNED, LIMITED = 2, 3


class TestMemberBilling:
    """A batch member is billed what it would be billed alone: its own
    bytes, rows and skipped groups, not the shared copy's sizes."""

    @pytest.fixture(scope="class")
    def backlogs(self):
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore
        from repro.workloads import TpchGenerator, load_dataset

        store, catalog = ObjectStore(), Catalog()
        load_dataset(
            store, catalog, "tpch", TpchGenerator(scale=0.05).tables(),
            rows_per_file=1000, rows_per_group=100,
        )
        runs = {}
        for batched in (False, True):
            sim = Simulator()
            config = TurboConfig.fast()
            coordinator = Coordinator(sim, config, catalog, store, "tpch")
            server = QueryServer(sim, coordinator, config, batch_best_effort=batched)
            for _ in range(3):  # occupy the cluster so the backlog queues
                server.submit(SQLS[0], ServiceLevel.RELAXED)
            runs[batched] = [
                server.submit(sql, ServiceLevel.BEST_EFFORT) for sql in BILLED
            ]
            sim.run_until(1200)
            if batched:
                assert coordinator.trace.values("batch.bytes_saved")
        return runs

    @staticmethod
    def bill(record):
        stats = record.execution.result.stats
        return (
            record.price_nanodollars,
            stats.bytes_scanned,
            stats.rows_scanned,
            stats.row_groups_skipped,
        )

    def test_member_bill_equals_solo_bill(self, backlogs):
        for solo, member in zip(backlogs[False], backlogs[True]):
            assert member.status is QueryStatus.FINISHED
            assert member.result_rows() == solo.result_rows()
            assert self.bill(member) == self.bill(solo), member.sql

    def test_backlog_prunes_and_exits_early(self, backlogs):
        members = backlogs[True]
        assert self.bill(members[PRUNED])[3] > 0
        limited, full = self.bill(members[LIMITED]), self.bill(members[0])
        assert limited[2] < full[2] and limited[1] < full[1]
