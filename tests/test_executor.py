"""End-to-end engine tests: SQL in, rows out, over the mini dataset.

Every query here runs both in-memory and (in TestAgainstObjectStore)
through the columnar format + object store, checking the two paths agree.
"""

import pytest

from tests.conftest import run_query


class TestProjectionAndFilter:
    def test_select_star(self, mini_engine):
        result = run_query(mini_engine, "SELECT * FROM customer ORDER BY c_custkey")
        assert result.column_names == ["c_custkey", "c_name", "c_nationkey"]
        assert result.num_rows == 3

    def test_projection(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT c_name FROM customer ORDER BY c_name"
        )
        assert result.rows() == [("alice",), ("bob",), ("carol",)]

    def test_where_comparison(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders WHERE o_totalprice > 250 ORDER BY 1",
        )
        assert result.rows() == [(3,), (5,), (6,)]

    def test_where_null_excluded(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT count(*) FROM orders WHERE o_totalprice < 1e9"
        )
        assert result.rows() == [(5,)]  # NULL price row excluded

    def test_is_null(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders WHERE o_totalprice IS NULL",
        )
        assert result.rows() == [(4,)]

    def test_between_dates(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM orders WHERE o_orderdate "
            "BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'",
        )
        assert result.rows() == [(4,)]

    def test_in_and_like(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM orders WHERE o_orderstatus IN ('O', 'P')",
        )
        assert result.rows() == [(4,)]
        result = run_query(
            mini_engine,
            "SELECT c_name FROM customer WHERE c_name LIKE '%o%' ORDER BY c_name",
        )
        assert result.rows() == [("bob",), ("carol",)]

    def test_computed_column(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey, o_totalprice * 1.1 AS taxed FROM orders "
            "WHERE o_orderkey = 1",
        )
        assert result.column_names == ["o_orderkey", "taxed"]
        assert result.rows()[0][1] == pytest.approx(110.0)


class TestJoins:
    def test_inner_join(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT c_name, o_orderkey FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "ORDER BY o_orderkey",
        )
        assert result.rows() == [
            ("alice", 1), ("alice", 2), ("bob", 3), ("bob", 4), ("carol", 5),
        ]

    def test_comma_join_with_where(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey",
        )
        assert result.rows() == [(5,)]

    def test_left_join_preserves_unmatched(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey, c_name FROM orders o "
            "LEFT JOIN customer c ON o.o_custkey = c.c_custkey "
            "ORDER BY o_orderkey",
        )
        assert result.rows()[-1] == (6, None)

    def test_join_with_non_equi_residual(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM customer c JOIN orders o "
            "ON c.c_custkey = o.o_custkey AND o.o_totalprice > 150",
        )
        assert result.rows() == [(3,)]

    def test_three_way_join(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM orders o "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN customer c2 ON c.c_custkey = c2.c_custkey",
        )
        assert result.rows() == [(5,)]

    def test_cross_join(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT count(*) FROM customer a, customer b"
        )
        assert result.rows() == [(9,)]

    def test_null_keys_never_match(self, mini_engine):
        # o_totalprice has a NULL; join on it against itself.
        result = run_query(
            mini_engine,
            "SELECT count(*) FROM orders a JOIN orders b "
            "ON a.o_totalprice = b.o_totalprice",
        )
        assert result.rows() == [(5,)]  # 5 non-null prices match themselves


class TestAggregation:
    def test_global_aggregates(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT count(*), sum(o_totalprice), avg(o_totalprice), "
            "min(o_totalprice), max(o_totalprice) FROM orders",
        )
        row = result.rows()[0]
        assert row[0] == 6
        assert row[1] == pytest.approx(1700.0)
        assert row[2] == pytest.approx(340.0)  # NULL excluded from avg
        assert row[3] == 100.0
        assert row[4] == 600.0

    def test_count_column_skips_nulls(self, mini_engine):
        result = run_query(mini_engine, "SELECT count(o_totalprice) FROM orders")
        assert result.rows() == [(5,)]

    def test_group_by(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderstatus, count(*) AS n FROM orders "
            "GROUP BY o_orderstatus ORDER BY o_orderstatus",
        )
        assert result.rows() == [("F", 2), ("O", 3), ("P", 1)]

    def test_group_by_with_having(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderstatus, count(*) AS n FROM orders "
            "GROUP BY o_orderstatus HAVING count(*) > 1 ORDER BY n DESC",
        )
        assert result.rows() == [("O", 3), ("F", 2)]

    def test_count_distinct(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT count(DISTINCT o_custkey) FROM orders"
        )
        assert result.rows() == [(4,)]

    def test_group_by_expression(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT year(o_orderdate) AS y, count(*) FROM orders "
            "GROUP BY year(o_orderdate) ORDER BY y",
        )
        assert result.rows() == [(1995, 4), (1996, 1), (1997, 1)]

    def test_group_by_null_key_groups_together(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_totalprice, count(*) FROM orders "
            "GROUP BY o_totalprice ORDER BY o_totalprice",
        )
        # 5 distinct prices + one NULL group, NULLs last.
        assert result.num_rows == 6
        assert result.rows()[-1] == (None, 1)

    def test_aggregate_join(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT c_name, sum(o_totalprice) AS total FROM customer c "
            "JOIN orders o ON c.c_custkey = o.o_custkey "
            "GROUP BY c_name ORDER BY total DESC",
        )
        assert result.rows() == [
            ("carol", 500.0), ("alice", 300.0), ("bob", 300.0),
        ]

    def test_empty_group_result(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderstatus, count(*) FROM orders WHERE o_orderkey > 99 "
            "GROUP BY o_orderstatus",
        )
        assert result.num_rows == 0

    def test_order_by_aggregate_not_in_select(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderstatus FROM orders GROUP BY o_orderstatus "
            "ORDER BY count(*) DESC",
        )
        assert result.rows() == [("O",), ("F",), ("P",)]
        assert result.column_names == ["o_orderstatus"]


class TestSortDistinctLimit:
    def test_order_by_desc_nulls_last(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC",
        )
        values = [row[0] for row in result.rows()]
        assert values == [600.0, 500.0, 300.0, 200.0, 100.0, None]

    def test_order_by_asc_nulls_last(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT o_totalprice FROM orders ORDER BY o_totalprice"
        )
        assert [row[0] for row in result.rows()][-1] is None

    def test_multi_key_sort(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderstatus, o_orderkey FROM orders "
            "ORDER BY o_orderstatus, o_orderkey DESC",
        )
        assert result.rows() == [
            ("F", 4), ("F", 2), ("O", 5), ("O", 3), ("O", 1), ("P", 6),
        ]

    def test_order_by_alias(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_totalprice * 2 AS doubled FROM orders "
            "WHERE o_totalprice IS NOT NULL ORDER BY doubled LIMIT 1",
        )
        assert result.rows() == [(200.0,)]

    def test_order_by_position(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey, o_totalprice FROM orders ORDER BY 2 DESC LIMIT 1",
        )
        assert result.rows() == [(6, 600.0)]

    def test_order_by_hidden_expression(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders ORDER BY o_custkey DESC, o_orderkey",
        )
        assert result.column_names == ["o_orderkey"]
        assert result.rows()[0] == (6,)

    def test_distinct(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT DISTINCT o_orderstatus FROM orders ORDER BY o_orderstatus",
        )
        assert result.rows() == [("F",), ("O",), ("P",)]

    def test_limit_offset(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 2 OFFSET 3",
        )
        assert result.rows() == [(4,), (5,)]

    def test_limit_beyond_rows(self, mini_engine):
        result = run_query(
            mini_engine, "SELECT o_orderkey FROM orders LIMIT 100"
        )
        assert result.num_rows == 6

    def test_stable_sort_preserves_input_order(self, mini_engine):
        result = run_query(
            mini_engine,
            "SELECT o_orderkey FROM orders ORDER BY o_orderdate",
        )
        # Four orders share 1995-01-01; stability keeps key order 1,3,5,6.
        assert [row[0] for row in result.rows()][:4] == [1, 3, 5, 6]


class TestAgainstObjectStore:
    QUERIES = [
        "SELECT count(*) FROM orders",
        "SELECT o_orderkey FROM orders WHERE o_totalprice > 250 ORDER BY 1",
        "SELECT c_name, sum(o_totalprice) AS t FROM customer c "
        "JOIN orders o ON c.c_custkey = o.o_custkey GROUP BY c_name ORDER BY t",
        "SELECT o_orderstatus, count(*) FROM orders GROUP BY o_orderstatus "
        "ORDER BY o_orderstatus",
        "SELECT DISTINCT o_custkey FROM orders ORDER BY o_custkey",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_store_matches_memory(self, mini_engine, mini_store_engine, sql):
        assert run_query(mini_store_engine, sql).rows() == run_query(
            mini_engine, sql
        ).rows()

    def test_bytes_scanned_positive_and_projected(self, mini_store_engine):
        wide = run_query(mini_store_engine, "SELECT * FROM orders")
        narrow = run_query(mini_store_engine, "SELECT o_orderkey FROM orders")
        assert narrow.stats.bytes_scanned > 0
        assert narrow.stats.bytes_scanned < wide.stats.bytes_scanned

    def test_zone_map_pruning_reduces_bytes(self, mini_store_engine):
        selective = run_query(
            mini_store_engine,
            "SELECT o_orderkey FROM orders WHERE o_orderkey >= 6",
        )
        full = run_query(mini_store_engine, "SELECT o_orderkey FROM orders")
        assert selective.rows() == [(6,)]
        assert selective.stats.bytes_scanned < full.stats.bytes_scanned


class TestQueryStatsMerge:
    def test_merge_sums_every_counter(self):
        """Every field gets its own value, so a counter that ``merge`` (or
        the ``ScanCounters.add`` under it) leaves out or swaps fails."""
        from dataclasses import fields

        from repro.engine.executor import QueryStats

        names = [f.name for f in fields(QueryStats)]
        total = QueryStats()
        for i in range(1, 4):
            total.merge(
                QueryStats(**{name: (k + 1) * i for k, name in enumerate(names)})
            )
        # Sibling fragments produce disjoint output slices: rows_produced
        # sums like the rest, it is not overwritten by the last fragment.
        assert {name: getattr(total, name) for name in names} == {
            name: (k + 1) * 6 for k, name in enumerate(names)
        }

    def test_merge_is_order_independent(self):
        from repro.engine.executor import QueryStats

        a = QueryStats(rows_produced=5, bytes_scanned=1)
        b = QueryStats(rows_produced=7, bytes_scanned=2)
        forward = QueryStats()
        forward.merge(a)
        forward.merge(b)
        backward = QueryStats()
        backward.merge(b)
        backward.merge(a)
        assert forward == backward
