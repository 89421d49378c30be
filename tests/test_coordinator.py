"""Unit/integration tests for the Coordinator's scheduling decisions."""

import pytest

from repro.errors import NoSuchQueryError, PixelsError
from repro.turbo.coordinator import ExecutionVenue

SIMPLE = "SELECT count(*) FROM orders"
HEAVY = (
    "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"
)


class TestSubmission:
    def test_runs_on_vm_when_slot_free(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        execution = coordinator.submit(SIMPLE, cf_enabled=True)
        sim.run_until(60)
        assert execution.succeeded
        assert execution.venue is ExecutionVenue.VM
        assert execution.result.rows()[0][0] > 0

    def test_overload_with_cf_goes_to_cf(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        executions = [
            coordinator.submit(HEAVY, cf_enabled=True) for _ in range(6)
        ]
        sim.run_until(120)
        venues = {execution.venue for execution in executions}
        assert ExecutionVenue.CF in venues
        assert all(execution.succeeded for execution in executions)

    def test_overload_without_cf_queues_in_vm(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        executions = [
            coordinator.submit(HEAVY, cf_enabled=False) for _ in range(6)
        ]
        assert coordinator.cf_service.invocations == []
        sim.run_until(300)
        assert all(execution.succeeded for execution in executions)
        assert all(
            execution.venue is ExecutionVenue.VM for execution in executions
        )
        # The later queries waited for a slot: nonzero pending time.
        assert any(execution.pending_time_s > 0 for execution in executions)

    def test_cf_and_vm_same_results(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        vm_execution = coordinator.submit(HEAVY, cf_enabled=False)
        sim.run_until(120)
        # Saturate, then submit with CF.
        blockers = [coordinator.submit(HEAVY, cf_enabled=False) for _ in range(4)]
        cf_execution = coordinator.submit(HEAVY, cf_enabled=True)
        sim.run_until(400)
        assert cf_execution.venue is ExecutionVenue.CF
        assert sorted(cf_execution.result.rows()) == sorted(
            vm_execution.result.rows()
        )

    def test_bad_sql_fails_cleanly(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        execution = coordinator.submit("SELEKT oops", cf_enabled=True)
        assert execution.error is not None
        assert not execution.succeeded

    def test_unknown_table_fails_cleanly(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        execution = coordinator.submit(
            "SELECT * FROM missing_table", cf_enabled=True
        )
        assert execution.error is not None

    def test_duplicate_query_id_rejected(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        coordinator.submit(SIMPLE, cf_enabled=True, query_id="dup")
        with pytest.raises(PixelsError):
            coordinator.submit(SIMPLE, cf_enabled=True, query_id="dup")

    def test_execution_lookup(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        execution = coordinator.submit(SIMPLE, cf_enabled=True, query_id="x")
        assert coordinator.execution("x") is execution
        with pytest.raises(NoSuchQueryError):
            coordinator.execution("ghost")

    def test_on_complete_callback_fires(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        finished = []
        coordinator.submit(
            SIMPLE, cf_enabled=True, on_complete=lambda e: finished.append(e)
        )
        sim.run_until(60)
        assert len(finished) == 1
        assert finished[0].succeeded


class TestLoadStatusApi:
    def test_watermark_checks(self, turbo_env):
        sim, _, _, config, coordinator, _ = turbo_env
        assert coordinator.below_high_watermark()
        assert coordinator.below_low_watermark()
        for _ in range(12):
            coordinator.submit(HEAVY, cf_enabled=False)
        assert not coordinator.below_high_watermark()
        assert not coordinator.below_low_watermark()

    def test_concurrency_counts_running_and_queued(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        for _ in range(5):
            coordinator.submit(HEAVY, cf_enabled=False)
        assert coordinator.concurrency == 5


class TestStatistics:
    def test_execution_times_recorded(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        execution = coordinator.submit(HEAVY, cf_enabled=True)
        sim.run_until(120)
        assert execution.pending_time_s == 0.0
        assert execution.execution_time_s > 0
        assert execution.bytes_scanned > 0

    def test_provider_cost_accumulates(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        coordinator.submit(HEAVY, cf_enabled=True)
        sim.run_until(120)
        assert coordinator.total_provider_cost() > 0

    def test_cf_execution_records_workers(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        for _ in range(4):
            coordinator.submit(HEAVY, cf_enabled=False)
        cf_execution = coordinator.submit(HEAVY, cf_enabled=True)
        sim.run_until(300)
        assert cf_execution.venue is ExecutionVenue.CF
        assert cf_execution.cf_workers >= 1
        assert cf_execution.provider_cost > 0

    def test_cf_stats_are_the_sub_plan_plus_the_merge_step(self, turbo_env):
        """Scan-side counters (the billing basis) come from the fanned-out
        sub-plan alone — the merge step reads only the materialized view —
        every other counter sums over both stages, and the row count is
        the merge step's."""
        from repro.engine import Optimizer, Planner, QueryExecutor
        from repro.engine.executor import QueryStats
        from repro.engine.source import ObjectStoreSource
        from repro.engine.sql.parser import parse_sql
        from repro.storage import BufferPool
        from repro.turbo import split_plan

        sim, store, catalog, config, coordinator, _ = turbo_env
        sql = (
            "SELECT o_orderpriority, count(*) FROM orders JOIN lineitem "
            "ON o_orderkey = l_orderkey GROUP BY o_orderpriority "
            "ORDER BY o_orderpriority LIMIT 3"
        )
        for _ in range(4):
            coordinator.submit(HEAVY, cf_enabled=False)
        execution = coordinator.submit(sql, cf_enabled=True)
        sim.run_until(600)
        assert execution.venue is ExecutionVenue.CF and execution.succeeded

        split = split_plan(
            Optimizer().optimize(Planner(catalog, "tpch").plan(parse_sql(sql)))
        )
        executor = QueryExecutor(
            ObjectStoreSource(
                store, cache=BufferPool.from_config(store, config.cache)
            )
        )
        sub = executor.execute_stream(split.sub)
        split.attach_stream(sub.batches())
        top = executor.execute(split.top).stats
        assert (top.bytes_scanned, top.rows_scanned, top.scan_latency_s) == (0, 0, 0.0)
        assert execution.result.stats == QueryStats(
            bytes_scanned=sub.stats.bytes_scanned,
            scan_latency_s=sub.stats.scan_latency_s,
            rows_scanned=sub.stats.rows_scanned,
            rows_produced=top.rows_produced,
            operators=sub.stats.operators + top.operators,
            get_requests=sub.stats.get_requests + top.get_requests,
            footer_gets=sub.stats.footer_gets + top.footer_gets,
            chunk_gets=sub.stats.chunk_gets + top.chunk_gets,
            cache_hits=sub.stats.cache_hits + top.cache_hits,
            cache_misses=sub.stats.cache_misses + top.cache_misses,
            cache_evictions=sub.stats.cache_evictions + top.cache_evictions,
            row_groups_skipped=sub.stats.row_groups_skipped
            + top.row_groups_skipped,
        )
        assert execution.result.stats.rows_produced == 3
