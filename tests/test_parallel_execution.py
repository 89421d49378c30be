"""Morsel-parallel scans and the expression evaluator.

The contract under test is *bit-identical determinism*: query results, row
ordering, billed dollars, storage accounting, and the rendered EXPLAIN
ANALYZE output must not depend on the worker count — and neither does the
physical plan, since workers only change how a scan reads its row
groups.  Expressions are checked for batch-split invariance over seeded
random trees (including
NULL propagation and Kleene three-valued logic), the row-locality the
executor's batch-size invariance rests on.
"""

import random

import numpy as np
import pytest

from tests.conftest import (
    CUSTOMER_SCHEMA,
    CUSTOMER_ROWS,
    build_catalog,
)
from repro.engine.batch import RecordBatch
from repro.engine.executor import QueryExecutor
from repro.engine.expr import (
    BoundArithmetic,
    BoundColumn,
    BoundComparison,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundLogical,
    BoundNegate,
    BoundNot,
    BoundExpr,
    clear_broadcast_cache,
    fold_constants,
    _BROADCAST_CACHE,
)
from repro.engine.executor import QueryStats
from repro.engine.optimizer import Optimizer
from repro.engine.pipeline import build_pipeline
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.obs.explain import render_analyzed_plan
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableData, TableWriter
from repro.storage.types import ColumnVector, DataType
from repro.workloads import TpchGenerator, load_dataset

# ---------------------------------------------------------------------------
# A store-backed dataset with enough row groups to exercise real morsels.
# ---------------------------------------------------------------------------

NUM_ORDERS = 311  # prime-ish; last row group is ragged on purpose
ROWS_PER_GROUP = 16


def _orders_rows():
    rng = random.Random(1234)
    statuses = ["O", "F", "P"]
    rows = []
    for key in range(1, NUM_ORDERS + 1):
        price = None if key % 13 == 0 else round(rng.uniform(10.0, 900.0), 2)
        rows.append(
            (
                key,
                rng.randrange(1, 4),
                price,
                statuses[key % 3],
                9131 + (key % 40),
            )
        )
    return rows


ORDERS_SCHEMA = [
    ("o_orderkey", DataType.BIGINT),
    ("o_custkey", DataType.BIGINT),
    ("o_totalprice", DataType.DOUBLE),
    ("o_orderstatus", DataType.VARCHAR),
    ("o_orderdate", DataType.DATE),
]


def _setup():
    store = ObjectStore()
    store.create_bucket("warehouse")
    writer = TableWriter(
        store, "warehouse", "mini/orders", rows_per_group=ROWS_PER_GROUP
    )
    writer.write(TableData.from_rows(ORDERS_SCHEMA, _orders_rows()))
    writer = TableWriter(
        store, "warehouse", "mini/customer", rows_per_group=ROWS_PER_GROUP
    )
    writer.write(TableData.from_rows(CUSTOMER_SCHEMA, CUSTOMER_ROWS))
    catalog = build_catalog("warehouse", "mini/orders", "mini/customer")
    return store, catalog


def _run(sql, workers, analyze=True):
    store, catalog = _setup()
    planner, optimizer = Planner(catalog, "mini"), Optimizer()
    executor = QueryExecutor(ObjectStoreSource(store), workers=workers)
    plan = optimizer.optimize(planner.plan_sql(sql))
    result = executor.execute(plan, analyze=analyze)
    return store, plan, result


INVARIANCE_QUERIES = [
    # grouped aggregate over a parallel scan
    "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_orderkey) AS s, "
    "MIN(o_orderdate) AS lo, MAX(o_orderdate) AS hi "
    "FROM orders GROUP BY o_orderstatus",
    # global aggregate, empty-group edge included via selective filter
    "SELECT COUNT(*) AS n, AVG(o_orderkey) AS a FROM orders "
    "WHERE o_totalprice > 880",
    # DOUBLE SUM: float adds are order-sensitive, so granule order shows
    "SELECT SUM(o_totalprice) AS s, AVG(o_totalprice) AS a FROM orders",
    # distinct
    "SELECT DISTINCT o_orderstatus FROM orders",
    # top-N, including boundary ties on o_orderdate
    "SELECT o_orderkey, o_orderdate FROM orders "
    "ORDER BY o_orderdate, o_orderkey LIMIT 7",
    # full sort
    "SELECT o_orderkey FROM orders WHERE o_custkey = 2 ORDER BY o_orderkey",
    # parallel scans feeding both sides of a hash join
    "SELECT c_name, COUNT(*) AS n FROM orders "
    "JOIN customer ON o_custkey = c_custkey "
    "WHERE o_totalprice IS NOT NULL GROUP BY c_name",
    # filter + projection arithmetic straight to the root (sequential)
    "SELECT o_orderkey * 2 + 1 AS k FROM orders "
    "WHERE o_totalprice > 100 AND o_orderstatus <> 'P'",
    # LIMIT chain stays sequential (early exit must keep billing lazy)
    "SELECT o_orderkey FROM orders LIMIT 5",
    # LEFT join whose build side holds ~100 duplicates per key and whose
    # probe side is mostly unmatched, under a top-N that cuts through the
    # NULL-padded rows: the join's (left row, right row) output order shows
    "SELECT a.o_orderkey, b.o_orderkey AS other FROM orders a "
    "LEFT JOIN orders b ON a.o_orderkey = b.o_custkey "
    "ORDER BY other DESC, a.o_orderkey LIMIT 320",
    # IN (subquery) planned as a semi join
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_nationkey = 10) "
    "ORDER BY o_orderkey",
]

#: ``o_orderstatus`` is dictionary-encoded with a different dictionary order
#: in every 16-row group, so these run on codes from chunk to kernel; they
#: are also the batch-size list's (``tests/test_pipeline_streaming.py``).
DICT_QUERIES = [
    # VARCHAR filter + GROUP BY on the same coded column
    "SELECT o_orderstatus, COUNT(*) AS n, MIN(o_orderstatus) AS lo FROM orders "
    "WHERE o_orderstatus <> 'P' AND o_orderstatus >= 'F' GROUP BY o_orderstatus",
    # q12's shape: IN on one side of a join, CASE over the other side's codes
    "SELECT a.o_orderstatus, "
    "SUM(CASE WHEN b.o_orderstatus = 'O' OR b.o_orderstatus = 'F' THEN 1 ELSE 0 END) "
    "AS high, "
    "SUM(CASE WHEN b.o_orderstatus <> 'O' AND b.o_orderstatus <> 'F' THEN 1 ELSE 0 END) "
    "AS low FROM orders a JOIN orders b ON a.o_orderkey = b.o_custkey "
    "WHERE b.o_orderstatus IN ('O', 'P') GROUP BY a.o_orderstatus "
    "ORDER BY a.o_orderstatus",
    # ORDER BY a coded column: full sort and top-N with boundary ties
    "SELECT o_orderkey, o_orderstatus FROM orders "
    "ORDER BY o_orderstatus DESC, o_orderkey",
    "SELECT o_orderstatus, o_orderkey FROM orders "
    "ORDER BY o_orderstatus, o_orderdate, o_orderkey LIMIT 40",
    # VARCHAR-key join: the two sides' dictionaries are unified
    "SELECT a.o_orderkey, b.o_orderkey AS other FROM orders a "
    "JOIN orders b ON a.o_orderstatus = b.o_orderstatus "
    "WHERE a.o_orderkey < 8 AND b.o_orderkey > 290 ORDER BY a.o_orderkey, other",
]
INVARIANCE_QUERIES += DICT_QUERIES


class TestWorkerInvariance:
    @pytest.mark.parametrize("sql", INVARIANCE_QUERIES)
    def test_results_billing_and_explain_identical(self, sql):
        from repro.core.service_levels import ServiceLevel
        from repro.turbo.config import TurboConfig
        from repro.turbo.cost import CostModel

        cost_model = CostModel(TurboConfig.fast())
        baseline = None
        for workers in (1, 2, 8):
            store, plan, result = _run(sql, workers)
            rendered = render_analyzed_plan(plan, result.profile, result.stats)
            snapshot = (
                result.column_names,
                result.rows(),
                rendered,
                cost_model.user_price(result.stats, ServiceLevel.IMMEDIATE),
                store.metrics.logical_bytes_scanned,
                store.metrics.get_requests,
                store.metrics.bytes_read,
                store.metrics.footer_cache_misses,
                store.metrics.chunk_cache_misses,
            )
            if baseline is None:
                baseline = snapshot
            else:
                assert snapshot == baseline, f"workers={workers}: {sql}"

    def test_scan_latency_is_exactly_worker_invariant(self):
        # lineitem's 3 035 rows in 12 row groups over 2 files: enough reads
        # for a difference of the store's running float total to round
        # differently from the same granule's reads summed from zero.
        store, catalog = ObjectStore(), Catalog()
        load_dataset(
            store,
            catalog,
            "tpch",
            TpchGenerator(scale=0.05, seed=13).tables(),
            rows_per_file=2048,
            rows_per_group=256,
        )
        plan = Optimizer().optimize(
            Planner(catalog, "tpch").plan_sql(
                "SELECT count(*) FROM lineitem WHERE l_discount > 0.05"
            )
        )
        latencies = [
            QueryExecutor(ObjectStoreSource(store), workers=workers)
            .execute(plan)
            .stats.scan_latency_s
            for workers in (1, 3)
        ]
        assert latencies[0] == latencies[1]

    @pytest.mark.parametrize("sql", INVARIANCE_QUERIES)
    def test_one_physical_plan_for_every_worker_count(self, sql):
        store, catalog = _setup()
        plan = Optimizer().optimize(Planner(catalog, "mini").plan_sql(sql))
        source = ObjectStoreSource(store)

        def shape(op):
            return (type(op), [shape(child) for child in op.children])

        shapes = [
            shape(build_pipeline(plan, source, QueryStats(), 4096, workers))
            for workers in (1, 4)
        ]
        assert shapes[0] == shapes[1], sql

    def test_scan_under_limit_reads_sequentially(self):
        # Read ahead, a parallel scan would fetch row groups the LIMIT
        # never reaches; the lazy scan stops after the first one.
        gets = []
        for workers in (1, 4):
            store, _, result = _run("SELECT o_orderkey FROM orders LIMIT 3", workers)
            assert result.profile.morsels == 1
            gets.append(store.metrics.get_requests)
        assert gets[0] == gets[1]

    def test_morsel_count_matches_row_groups(self):
        expected_groups = -(-NUM_ORDERS // ROWS_PER_GROUP)
        for workers in (1, 4):
            _, _, result = _run(
                "SELECT COUNT(*) AS n FROM orders", workers
            )
            assert result.profile.morsels == expected_groups

    def test_limit_early_exit_survives_worker_config(self):
        """A LIMIT chain has no pipeline breaker, so it must stay
        sequential — billed bytes reflect early exit, not a full scan."""
        _, _, full = _run("SELECT COUNT(*) AS n FROM orders", 4)
        _, _, limited = _run("SELECT o_orderkey FROM orders LIMIT 3", 4)
        assert limited.stats.bytes_scanned < full.stats.bytes_scanned

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        store, _ = _setup()
        executor = QueryExecutor(ObjectStoreSource(store))
        assert executor.workers == 3
        monkeypatch.delenv("REPRO_WORKERS")
        executor = QueryExecutor(ObjectStoreSource(store))
        assert executor.workers == 1


class TestExplainSurfaces:
    def test_morsels_annotated_on_scan_lines(self):
        _, plan, result = _run("SELECT COUNT(*) AS n FROM orders", 4)
        rendered = render_analyzed_plan(plan, result.profile, result.stats)
        assert "morsels=" in rendered

    def test_context_header_is_opt_in(self):
        _, plan, result = _run("SELECT COUNT(*) AS n FROM orders", 2)
        bare = render_analyzed_plan(plan, result.profile, result.stats)
        assert not bare.startswith("execution:")
        headed = render_analyzed_plan(
            plan,
            result.profile,
            result.stats,
            context={"workers": 2, "batch_size": 4096},
        )
        first, rest = headed.split("\n", 1)
        assert first == "execution: workers=2 batch_size=4096"
        assert rest == bare

    def test_coordinator_explain_reports_workers(self, turbo_env):
        sim, store, catalog, config, coordinator, server = turbo_env
        text = coordinator.explain_analyze("SELECT COUNT(*) FROM region")
        assert text.startswith("execution: workers=")
        assert "batch_size=" in text.splitlines()[0]


# ---------------------------------------------------------------------------
# Expressions: batch-split invariance over random trees, Kleene tables.
# ---------------------------------------------------------------------------


def _expr_table(rng, num_rows=97):
    def nullable(data, fraction):
        nulls = np.array([rng.random() < fraction for _ in range(num_rows)])
        return nulls if nulls.any() else None

    a = np.array([rng.randrange(-50, 50) for _ in range(num_rows)], dtype=np.int64)
    b = np.array([rng.uniform(-10.0, 10.0) for _ in range(num_rows)])
    c = np.array([rng.randrange(0, 5) for _ in range(num_rows)], dtype=np.int64)
    s = np.array([rng.choice(["red", "green", "blue", ""]) for _ in range(num_rows)], dtype=object)
    # The same kind of column, dictionary-coded (one entry no row uses).
    d = np.array([rng.randrange(4) for _ in range(num_rows)], dtype=np.int32)
    words = np.array(["red", "", "blue", "green", "unused"], dtype=object)
    return TableData(
        {
            "t.a": ColumnVector(DataType.BIGINT, a, nullable(a, 0.2)),
            "t.b": ColumnVector(DataType.DOUBLE, b, nullable(b, 0.2)),
            "t.c": ColumnVector(DataType.BIGINT, c),
            "t.s": ColumnVector(DataType.VARCHAR, s, nullable(s, 0.15)),
            "t.d": ColumnVector.from_codes(d, words, nullable(d, 0.15)),
        }
    )


def _gen_numeric(rng, depth) -> BoundExpr:
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(5)
        if choice == 0:
            return BoundColumn("t.a", DataType.BIGINT)
        if choice == 1:
            return BoundColumn("t.b", DataType.DOUBLE)
        if choice == 2:
            return BoundColumn("t.c", DataType.BIGINT)
        if choice == 3:
            return BoundLiteral(rng.randrange(-20, 20), DataType.BIGINT)
        return BoundLiteral(round(rng.uniform(-5.0, 5.0), 3), DataType.DOUBLE)
    op = rng.choice(["+", "-", "*", "/", "%"])
    left = _gen_numeric(rng, depth - 1)
    right = _gen_numeric(rng, depth - 1)
    if rng.random() < 0.15:
        return BoundNegate.bind(BoundArithmetic.bind(op, left, right))
    return BoundArithmetic.bind(op, left, right)


def _gen_bool(rng, depth) -> BoundExpr:
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return BoundComparison.bind(
                rng.choice(["=", "<>", "<", "<=", ">", ">="]),
                _gen_numeric(rng, 1),
                _gen_numeric(rng, 1),
            )
        if kind == 1:
            column = BoundColumn(rng.choice(["t.s", "t.d"]), DataType.VARCHAR)
            shape = rng.randrange(4)
            if shape == 0:
                return BoundInList(
                    column, ("red", rng.choice(["", "nope"])), negated=rng.random() < 0.5
                )
            if shape == 1:
                return BoundLike(column, rng.choice(["%e%", "b_ue", ""]))
            other = (
                BoundColumn("t.d", DataType.VARCHAR)
                if shape == 2
                else BoundLiteral(rng.choice(["red", "blue", "nope"]), DataType.VARCHAR)
            )
            sides = [column, other]
            rng.shuffle(sides)
            return BoundComparison.bind(
                rng.choice(["=", "<>", "<", "<=", ">", ">="]), *sides
            )
        if kind == 2:
            return BoundIsNull(
                _gen_numeric(rng, 1), negated=rng.random() < 0.5
            )
        return BoundInList(
            BoundColumn("t.a", DataType.BIGINT),
            tuple(rng.randrange(-50, 50) for _ in range(3)),
            negated=rng.random() < 0.5,
        )
    roll = rng.random()
    if roll < 0.15:
        return BoundNot.bind(_gen_bool(rng, depth - 1))
    return BoundLogical.bind(
        rng.choice(["and", "or"]),
        _gen_bool(rng, depth - 1),
        _gen_bool(rng, depth - 1),
    )


def _assert_vectors_equal(expected: ColumnVector, actual: ColumnVector, context):
    assert actual.dtype is expected.dtype, context
    expected_nulls = (
        expected.nulls
        if expected.nulls is not None
        else np.zeros(len(expected), dtype=bool)
    )
    actual_nulls = (
        actual.nulls if actual.nulls is not None else np.zeros(len(actual), dtype=bool)
    )
    assert np.array_equal(expected_nulls, actual_nulls), context
    valid = ~expected_nulls
    if expected.dtype is DataType.VARCHAR:
        expected_valid = [str(v) for v in expected.data[valid]]
        actual_valid = [str(v) for v in actual.data[valid]]
        assert expected_valid == actual_valid, context
    else:
        assert np.array_equal(
            np.asarray(expected.data)[valid], np.asarray(actual.data)[valid]
        ), context


class TestCompiledExpressions:
    def test_randomized_batch_split_invariance(self):
        # Every expression is row-local: evaluating a table equals
        # evaluating its slices and concatenating, at any slice size —
        # which also runs the broadcast cache across batch lengths.
        rng = random.Random(20260808)
        table = _expr_table(rng)
        for round_index in range(250):
            expr = (
                _gen_bool(rng, 3) if round_index % 2 else _gen_numeric(rng, 3)
            )
            whole = expr.evaluate(table)
            for size in (1, 7, table.num_rows):
                pieces = [
                    expr.evaluate(batch.data)
                    for batch in RecordBatch.slices(table, size)
                ]
                _assert_vectors_equal(
                    whole,
                    ColumnVector.concat_all(pieces),
                    f"round {round_index}, slices of {size}: {expr.to_sql()}",
                )

    def test_kleene_logic_with_nulls(self):
        # All nine (left, right) cells in one batch, then the four
        # NULL-free cells with no null mask on either side (the two-valued
        # path).
        cells = [(l, r) for l in (True, False, None) for r in (True, False, None)]

        def and_(l, r):
            if l is False or r is False:
                return False
            return None if l is None or r is None else True

        def or_(l, r):
            if l is True or r is True:
                return True
            return None if l is None or r is None else False

        for rows in (cells, [(l, r) for l, r in cells if None not in (l, r)]):
            table = TableData(
                {
                    "t.l": ColumnVector.from_values(DataType.BOOLEAN, [l for l, _ in rows]),
                    "t.r": ColumnVector.from_values(DataType.BOOLEAN, [r for _, r in rows]),
                }
            )
            left = BoundColumn("t.l", DataType.BOOLEAN)
            right = BoundColumn("t.r", DataType.BOOLEAN)
            for op, truth in (("and", and_), ("or", or_)):
                got = BoundLogical.bind(op, left, right).evaluate(table)
                assert got.to_values() == [truth(l, r) for l, r in rows], (op, rows)

    def test_constant_folding(self):
        expr = BoundArithmetic.bind(
            "*",
            BoundLiteral(3, DataType.BIGINT),
            BoundArithmetic.bind(
                "+", BoundLiteral(4, DataType.BIGINT), BoundLiteral(1, DataType.BIGINT)
            ),
        )
        folded = fold_constants(expr)
        assert isinstance(folded, BoundLiteral)
        assert folded.value == 15
        # Column references block folding but constant subtrees still fold.
        mixed = BoundArithmetic.bind(
            "+", BoundColumn("t.a", DataType.BIGINT), expr
        )
        folded_mixed = fold_constants(mixed)
        assert isinstance(folded_mixed, BoundArithmetic)
        assert isinstance(folded_mixed.right, BoundLiteral)
        assert folded_mixed.right.value == 15

    def test_planner_folds_constants_in_predicates(self):
        store, catalog = _setup()
        planner = Planner(catalog, "mini")
        plan = planner.plan_sql(
            "SELECT o_orderkey FROM orders WHERE o_orderkey > 2 + 3"
        )
        sql = repr(plan.explain()) if hasattr(plan, "explain") else ""
        # Walk to the Filter and check the bound predicate's right side.
        node = plan
        from repro.engine.plan import Filter

        while node is not None and not isinstance(node, Filter):
            children = node.children()
            node = children[0] if children else None
        assert node is not None, sql
        assert isinstance(node.predicate.right, BoundLiteral)
        assert node.predicate.right.value == 5


class TestBroadcastCache:
    def test_repeated_literals_share_vectors(self):
        clear_broadcast_cache()
        table = TableData(
            {"t.x": ColumnVector(DataType.BIGINT, np.arange(64, dtype=np.int64))}
        )
        literal = BoundLiteral(42, DataType.BIGINT)
        first = literal.evaluate(table)
        second = literal.evaluate(table)
        assert first.data is second.data
        assert len(_BROADCAST_CACHE) >= 1
        clear_broadcast_cache()
        assert len(_BROADCAST_CACHE) == 0

    def test_distinct_lengths_get_distinct_vectors(self):
        clear_broadcast_cache()
        small = TableData(
            {"t.x": ColumnVector(DataType.BIGINT, np.arange(8, dtype=np.int64))}
        )
        large = TableData(
            {"t.x": ColumnVector(DataType.BIGINT, np.arange(16, dtype=np.int64))}
        )
        literal = BoundLiteral("x", DataType.VARCHAR)
        assert len(literal.evaluate(small)) == 8
        assert len(literal.evaluate(large)) == 16
