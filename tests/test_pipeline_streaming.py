"""Tests for the vectorized pipeline executor.

Covers the properties the batch-at-a-time rewrite has to guarantee:

* LIMIT early-exit actually stops row-group fetches (strictly fewer
  storage GETs and billed bytes than the full scan);
* results are bit-identical for any batch size, including under the
  Turbo CF split with the incremental (streamed) coordinator merge;
* streaming pipelines keep peak materialized bytes bounded by the batch
  size rather than the table size;
* EXPLAIN ANALYZE output is byte-reproducible (virtual, deterministic
  operator timing);
* the TopN fusion produces exactly the rows of Sort + Limit.
"""

import inspect
import threading

import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.plan import TopN, walk_plan
from repro.engine.planner import Planner
from repro.engine.source import InMemorySource, ObjectStoreSource
from repro.errors import ExecutionError
from repro.obs import render_analyzed_plan
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableData, TableWriter
from repro.storage.types import DataType
from repro.turbo.plan_split import split_plan
from tests.test_parallel_execution import DICT_QUERIES, _setup as dict_store
from tests.conftest import (
    CUSTOMER_ROWS,
    CUSTOMER_SCHEMA,
    ORDERS_ROWS,
    ORDERS_SCHEMA,
    run_query,
)

BIG_SCHEMA = [
    ("k", DataType.BIGINT),
    ("v", DataType.DOUBLE),
    ("s", DataType.VARCHAR),
]

BIG_ROWS = [(i, float(i % 10), f"row-{i % 5}") for i in range(64)]


@pytest.fixture
def big_store():
    """64 rows spread over 4 files x 4 row groups each, so early exit has
    plenty of fetches to skip."""
    store = ObjectStore()
    store.create_bucket("warehouse")
    catalog = Catalog()
    catalog.create_schema("big")
    catalog.create_table(
        "big",
        "t",
        [
            ColumnMeta("k", DataType.BIGINT),
            ColumnMeta("v", DataType.DOUBLE),
            ColumnMeta("s", DataType.VARCHAR),
        ],
        bucket="warehouse",
        prefix="big/t",
    )
    TableWriter(
        store, "warehouse", "big/t", rows_per_file=16, rows_per_group=4
    ).write(TableData.from_rows(BIG_SCHEMA, BIG_ROWS))
    return store, catalog


def big_engine(big_store, batch_size=4096):
    store, catalog = big_store
    return (
        Planner(catalog, "big"),
        Optimizer(),
        QueryExecutor(ObjectStoreSource(store), batch_size=batch_size),
    )


class TestLimitEarlyExit:
    def test_limit_issues_fewer_gets_than_full_scan(self, big_store):
        full = run_query(big_engine(big_store), "SELECT k FROM t")
        limited = run_query(big_engine(big_store), "SELECT k FROM t LIMIT 3")
        assert limited.rows() == full.rows()[:3]
        # The acceptance criterion: strictly fewer storage GETs.
        assert limited.stats.get_requests < full.stats.get_requests
        assert limited.stats.bytes_scanned < full.stats.bytes_scanned
        assert limited.stats.rows_scanned < full.stats.rows_scanned

    def test_limit_stops_after_first_row_group(self, big_store):
        # LIMIT 3 fits in the first 4-row group: exactly one file's footer
        # and one group's single projected column chunk are fetched.
        limited = run_query(big_engine(big_store), "SELECT k FROM t LIMIT 3")
        assert limited.stats.rows_scanned == 4
        # Footer locate + footer body + one column chunk — nothing else.
        assert limited.stats.get_requests == 3

    def test_limit_with_offset_fetches_only_what_it_needs(self, big_store):
        full = run_query(big_engine(big_store), "SELECT k FROM t")
        limited = run_query(
            big_engine(big_store), "SELECT k FROM t LIMIT 4 OFFSET 6"
        )
        assert limited.rows() == full.rows()[6:10]
        # Rows 6..9 live in groups 2 and 3 of file 0: the scan must stop
        # inside the first file.
        assert limited.stats.rows_scanned == 12
        assert limited.stats.get_requests < full.stats.get_requests

    def test_early_exit_combines_with_zone_map_skipping(self, big_store):
        limited = run_query(
            big_engine(big_store),
            "SELECT k FROM t WHERE k >= 20 LIMIT 2",
        )
        assert limited.rows() == [(20,), (21,)]
        # Zone maps prune groups below k=20 (files are range-partitioned
        # by construction), and the limit stops the scan right after the
        # first surviving group.
        assert limited.stats.row_groups_skipped > 0
        full = run_query(big_engine(big_store), "SELECT k FROM t WHERE k >= 20")
        assert limited.stats.get_requests < full.stats.get_requests

    def test_full_drain_matches_whole_scan_accounting(self, big_store):
        """Summing granule deltas reproduces the one-shot scan's totals."""
        store, catalog = big_store
        streamed = run_query(big_engine(big_store), "SELECT k, v, s FROM t")
        whole = QueryExecutor(ObjectStoreSource(store)).execute(
            Optimizer().optimize(
                Planner(catalog, "big").plan_sql("SELECT k, v, s FROM t")
            )
        )
        assert streamed.stats.bytes_scanned == whole.stats.bytes_scanned
        assert streamed.stats.get_requests == whole.stats.get_requests
        assert streamed.rows() == whole.rows()


QUERIES = [
    "SELECT o_orderkey, o_totalprice FROM orders",
    "SELECT o_custkey, count(*) AS n, sum(o_totalprice) AS t FROM orders "
    "GROUP BY o_custkey ORDER BY o_custkey",
    "SELECT c_name, sum(o_totalprice) AS t FROM customer c "
    "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c_name ORDER BY t DESC",
    "SELECT o_orderkey FROM orders WHERE o_totalprice > 150 ORDER BY o_orderkey",
    "SELECT DISTINCT o_orderstatus FROM orders ORDER BY 1",
    "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 3",
    "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 2 OFFSET 3",
    "SELECT o_custkey FROM orders UNION ALL SELECT c_custkey FROM customer",
    # LEFT join with duplicate build keys and unmatched probe rows, cut by
    # a top-N that keeps some of the NULL-padded rows
    "SELECT a.o_orderkey, b.o_orderkey AS other FROM orders a "
    "LEFT JOIN orders b ON a.o_orderkey = b.o_custkey "
    "ORDER BY a.o_orderkey DESC, other LIMIT 5",
    # IN (subquery) planned as a semi join
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_nationkey = 10) "
    "ORDER BY o_orderkey",
]


class TestBatchSizeInvariance:
    """Results must be bit-identical for any batch size >= 1."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_in_memory_engine(self, mini_catalog, mini_tables, sql):
        results = []
        for batch_size in (1, 7, 4096):
            engine = (
                Planner(mini_catalog, "mini"),
                Optimizer(),
                QueryExecutor(InMemorySource(mini_tables), batch_size=batch_size),
            )
            results.append(run_query(engine, sql))
        assert results[0].rows() == results[1].rows() == results[2].rows()
        assert (
            results[0].column_names
            == results[1].column_names
            == results[2].column_names
        )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_object_store_engine(self, mini_object_store, sql):
        store, catalog = mini_object_store
        results = []
        for batch_size in (1, 7, 4096):
            engine = (
                Planner(catalog, "mini"),
                Optimizer(),
                QueryExecutor(ObjectStoreSource(store), batch_size=batch_size),
            )
            results.append(run_query(engine, sql))
        assert results[0].rows() == results[1].rows() == results[2].rows()

    @pytest.mark.parametrize("sql", DICT_QUERIES)
    def test_dictionary_coded_columns(self, sql):
        """Several dictionaries per column (16-row groups): the merged
        dictionary's order must not depend on where batches are cut."""
        store, catalog = dict_store()
        results = []
        for batch_size in (1, 7, 4096):
            engine = (
                Planner(catalog, "mini"),
                Optimizer(),
                QueryExecutor(ObjectStoreSource(store), batch_size=batch_size),
            )
            results.append(run_query(engine, sql))
        assert results[0].rows() == results[1].rows() == results[2].rows()
        assert results[0].num_rows > 0

    def test_rejects_nonpositive_batch_size(self, mini_tables):
        with pytest.raises(ValueError):
            QueryExecutor(InMemorySource(mini_tables), batch_size=0)


class TestStreamingMemory:
    def test_streaming_pipeline_peak_is_batch_bounded(self, big_store):
        store, catalog = big_store
        executor = QueryExecutor(ObjectStoreSource(store), batch_size=8)
        plan = Optimizer().optimize(
            Planner(catalog, "big").plan_sql("SELECT k, v FROM t WHERE v >= 0.0")
        )
        result = executor.execute(plan, analyze=True)
        assert result.num_rows == 64
        full_bytes = 64 * 16  # two 8-byte columns
        batch_bytes = 8 * 16

        def walk(profile):
            yield profile
            for child in profile.children:
                yield from walk(child)

        for profile in walk(result.profile):
            assert 0 < profile.peak_bytes <= batch_bytes
            assert profile.peak_bytes < full_bytes
            assert profile.batches >= 64 // 8

    def test_blocking_operator_reports_materialized_peak(self, big_store):
        store, catalog = big_store
        executor = QueryExecutor(ObjectStoreSource(store), batch_size=8)
        plan = Optimizer().optimize(
            Planner(catalog, "big").plan_sql("SELECT k FROM t ORDER BY k DESC")
        )
        result = executor.execute(plan, analyze=True)
        # The sort materializes all 64 keys; its peak reflects that.
        sort_profile = result.profile
        while sort_profile.name != "Sort":
            sort_profile = sort_profile.children[0]
        assert sort_profile.peak_bytes >= 64 * 8


class TestExplainAnalyzeDeterminism:
    def test_rendered_profile_is_byte_reproducible(self, big_store):
        store, catalog = big_store
        texts = []
        for _ in range(2):
            executor = QueryExecutor(ObjectStoreSource(store))
            plan = Optimizer().optimize(
                Planner(catalog, "big").plan_sql(
                    "SELECT s, count(*) AS n FROM t WHERE k < 40 "
                    "GROUP BY s ORDER BY n DESC LIMIT 2"
                )
            )
            result = executor.execute(plan, analyze=True)
            texts.append(render_analyzed_plan(plan, result.profile, result.stats))
        assert texts[0] == texts[1]
        assert "time=" in texts[0]
        assert "batches=" in texts[0]

    def test_annotation_fields_present(self, mini_store_engine):
        planner, optimizer, executor = mini_store_engine
        plan = optimizer.optimize(
            planner.plan_sql("SELECT o_orderkey FROM orders WHERE o_orderkey > 2")
        )
        result = executor.execute(plan, analyze=True)
        text = render_analyzed_plan(plan, result.profile, result.stats)
        first_line = text.split("\n")[0]
        assert "[rows=" in first_line
        assert "rows_in=" in first_line
        assert "peak=" in first_line


class TestTopNFusion:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT o_orderkey FROM orders ORDER BY o_custkey LIMIT 3",
            "SELECT o_orderkey FROM orders ORDER BY o_totalprice DESC LIMIT 2",
            # NULL o_totalprice exercises NULLS LAST at the boundary.
            "SELECT o_orderkey FROM orders ORDER BY o_totalprice LIMIT 6",
            "SELECT o_orderkey FROM orders "
            "ORDER BY o_orderstatus, o_orderkey DESC LIMIT 4",
            "SELECT o_orderkey FROM orders ORDER BY o_custkey LIMIT 2 OFFSET 2",
            # Ties on o_orderdate: stability must match the full sort.
            "SELECT o_orderkey FROM orders ORDER BY o_orderdate LIMIT 3",
        ],
    )
    def test_fused_matches_unfused(self, mini_engine, sql):
        planner, optimizer, executor = mini_engine
        unfused = executor.execute(planner.plan_sql(sql))  # Sort + Limit
        fused_plan = optimizer.optimize(planner.plan_sql(sql))
        assert any(isinstance(n, TopN) for n in walk_plan(fused_plan))
        assert executor.execute(fused_plan).rows() == unfused.rows()

    def test_limit_larger_than_input_keeps_all_rows(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 100",
        )
        assert [r[0] for r in result.rows()] == [1, 2, 3, 4, 5, 6]

    def test_unlimited_sort_not_fused(self, mini_engine):
        planner, optimizer, _ = mini_engine
        plan = optimizer.optimize(
            planner.plan_sql("SELECT o_orderkey FROM orders ORDER BY o_orderkey")
        )
        assert not any(isinstance(n, TopN) for n in walk_plan(plan))


class TestIncrementalCoordinatorMerge:
    """The CF split executed with a streamed (incremental) merge must be
    indistinguishable from direct execution, at any batch size."""

    SPLIT_QUERIES = [
        "SELECT count(*) FROM orders",
        "SELECT o_orderstatus, count(*) AS n FROM orders "
        "GROUP BY o_orderstatus ORDER BY o_orderstatus",
        "SELECT c_name, sum(o_totalprice) AS t FROM customer c "
        "JOIN orders o ON c.c_custkey = o.o_custkey "
        "GROUP BY c_name ORDER BY t DESC LIMIT 2",
        "SELECT o_orderkey FROM orders WHERE o_totalprice > 150 "
        "ORDER BY o_orderkey",
    ]

    @pytest.mark.parametrize("sql", SPLIT_QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_streamed_split_matches_direct(
        self, mini_object_store, sql, batch_size
    ):
        store, catalog = mini_object_store
        engine = (
            Planner(catalog, "mini"),
            Optimizer(),
            QueryExecutor(ObjectStoreSource(store), batch_size=batch_size),
        )
        planner, optimizer, executor = engine
        direct = run_query(engine, sql)
        split = split_plan(optimizer.optimize(planner.plan_sql(sql)))
        sub_exec = executor.execute_stream(split.sub)
        split.attach_stream(sub_exec.batches())
        via_cf = executor.execute(split.top)
        assert via_cf.rows() == direct.rows()
        assert via_cf.column_names == direct.column_names
        # The stream's stats cover the sub-plan work actually performed:
        # every query here drains its stream, so all of the sub-plan's rows.
        assert (
            sub_exec.stats.rows_produced == executor.execute(split.sub).num_rows
        )
        assert sub_exec.batches_emitted >= 1
        assert sub_exec.stats.bytes_scanned > 0

    def test_coordinator_cf_path_streams_and_matches_vm(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        heavy = (
            "SELECT l_returnflag, count(*) AS n FROM lineitem "
            "GROUP BY l_returnflag ORDER BY l_returnflag"
        )
        vm_execution = coordinator.submit(heavy, cf_enabled=False)
        sim.run_until(120)
        blockers = [
            coordinator.submit(heavy, cf_enabled=False) for _ in range(4)
        ]
        cf_execution = coordinator.submit(heavy, cf_enabled=True)
        sim.run_until(400)
        from repro.turbo.coordinator import ExecutionVenue

        assert cf_execution.venue is ExecutionVenue.CF
        assert cf_execution.result.rows() == vm_execution.result.rows()
        assert cf_execution.result.stats.bytes_scanned > 0
        assert all(b.succeeded for b in blockers)

    def test_abandoned_stream_closes_cleanly(self, mini_object_store):
        store, catalog = mini_object_store
        executor = QueryExecutor(ObjectStoreSource(store), batch_size=1)
        plan = Optimizer().optimize(
            Planner(catalog, "mini").plan_sql("SELECT o_orderkey FROM orders")
        )
        streaming = executor.execute_stream(plan)
        gen = streaming.batches()
        first = next(gen)
        assert first.num_rows == 1
        gen.close()  # abandon: the pipeline must close without error
        # Only the work done before abandonment is accounted (one row
        # group of two rows, not the whole six-row table).
        assert streaming.stats.rows_scanned == 2
        assert streaming.stats.rows_produced == 1


class TestClosing:
    """Closing a pipeline reaches every generator below it."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_limit_over_the_cf_view_stops_the_sub_plan(self, big_store, workers):
        store, catalog = big_store
        planner, optimizer = Planner(catalog, "big"), Optimizer()
        executor = QueryExecutor(ObjectStoreSource(store), workers=workers)

        def plan(sql):
            return optimizer.optimize(planner.plan_sql(sql))

        full = executor.execute(plan("SELECT k FROM t")).stats.bytes_scanned
        direct = executor.execute(plan("SELECT k FROM t LIMIT 3"))
        split = split_plan(plan("SELECT k FROM t LIMIT 3"))
        sub_exec = executor.execute_stream(split.sub)
        stream = sub_exec.batches()
        split.attach_stream(stream)
        via_cf = executor.execute(split.top)
        assert via_cf.rows() == direct.rows()
        # The LIMIT above the view closed the sub-plan after its first row
        # group: it scanned what the direct plan scanned, not the table.
        assert sub_exec.stats.bytes_scanned == direct.stats.bytes_scanned == 1550
        assert full == 6695
        assert inspect.getgeneratorstate(stream) == inspect.GEN_CLOSED

    def test_error_in_a_parallel_scan_shuts_its_pool_down(self, big_store):
        store, catalog = big_store
        plan = Optimizer().optimize(
            Planner(catalog, "big").plan_sql(
                "SELECT CAST(s AS INT) AS n FROM t ORDER BY n"
            )
        )
        executor = QueryExecutor(ObjectStoreSource(store), workers=4)
        threads = threading.active_count()
        with pytest.raises(ExecutionError):
            executor.execute(plan)
        assert threading.active_count() == threads
