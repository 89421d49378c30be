"""Tests for DDL: CREATE TABLE / DROP TABLE through the Coordinator."""

import pytest

from repro.core import QueryStatus, ServiceLevel
from repro.errors import (
    DuplicateObjectError,
    NoSuchTableError,
    ParseError,
    PixelsError,
)
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_sql


class TestDdlParsing:
    def test_create_table(self):
        statement = parse_sql(
            "CREATE TABLE metrics (id bigint, label varchar, v double)"
        )
        assert statement == ast.CreateTable(
            "metrics", (("id", "bigint"), ("label", "varchar"), ("v", "double"))
        )

    def test_drop_table(self):
        assert parse_sql("DROP TABLE metrics") == ast.DropTable("metrics")

    def test_create_requires_columns(self):
        with pytest.raises(ParseError):
            parse_sql("CREATE TABLE empty ()")

    def test_create_requires_table_keyword(self):
        with pytest.raises(ParseError, match="expected TABLE"):
            parse_sql("CREATE VIEW v")

    def test_to_sql_roundtrip(self):
        sql = "CREATE TABLE t (a int, b varchar)"
        assert parse_sql(parse_sql(sql).to_sql()).to_sql() == parse_sql(sql).to_sql()

    def test_date_type_allowed(self):
        statement = parse_sql("CREATE TABLE t (d date)")
        assert statement.columns == (("d", "date"),)


class TestDdlExecution:
    def test_create_then_query(self, turbo_env):
        sim, _, catalog, _, coordinator, server = turbo_env
        message = coordinator.execute_ddl(
            "CREATE TABLE metrics (id bigint, label varchar, v double)"
        )
        assert message == "created table metrics"
        assert catalog.table("tpch", "metrics").column_names == ["id", "label", "v"]
        record = server.submit("SELECT count(*) FROM metrics", ServiceLevel.IMMEDIATE)
        sim.run_until(60)
        assert record.status is QueryStatus.FINISHED
        assert record.result_rows() == [(0,)]

    def test_drop_removes_table_and_files(self, turbo_env):
        _, store, catalog, _, coordinator, _ = turbo_env
        coordinator.execute_ddl("CREATE TABLE gone (x int)")
        prefix = "tpch/gone"
        assert store.list_keys("warehouse", prefix + "/")
        coordinator.execute_ddl("DROP TABLE gone")
        with pytest.raises(NoSuchTableError):
            catalog.table("tpch", "gone")
        assert store.list_keys("warehouse", prefix + "/") == []

    def test_duplicate_create_rejected(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        coordinator.execute_ddl("CREATE TABLE dup (x int)")
        with pytest.raises(DuplicateObjectError):
            coordinator.execute_ddl("CREATE TABLE dup (x int)")

    def test_drop_missing_rejected(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        with pytest.raises(NoSuchTableError):
            coordinator.execute_ddl("DROP TABLE ghost")

    def test_unknown_type_rejected(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        with pytest.raises(PixelsError, match="unknown data type"):
            coordinator.execute_ddl("CREATE TABLE bad (x blob)")

    def test_select_through_execute_ddl_rejected(self, turbo_env):
        _, _, _, _, coordinator, _ = turbo_env
        with pytest.raises(PixelsError, match="expects CREATE"):
            coordinator.execute_ddl("SELECT 1 FROM orders")

    def test_created_table_visible_to_nl2sql(self, turbo_env):
        _, _, catalog, _, coordinator, _ = turbo_env
        coordinator.execute_ddl(
            "CREATE TABLE sensors (sensor_id bigint, temperature double)"
        )
        from repro.nl2sql import RuleBasedTranslator

        translation = RuleBasedTranslator().translate(
            catalog.schema("tpch"), "what is the average temperature of sensors"
        )
        assert "avg(temperature)" in translation.sql
        assert "FROM sensors" in translation.sql


class TestDdlSubmittedAsAQuery:
    """A DDL text parses, so it reaches the planner when submitted as a
    query: it fails that query with a named error, observed or not, and
    changes no table."""

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize(
        "sql", ["CREATE TABLE x (a INT)", "DROP TABLE nation"]
    )
    def test_submitted_ddl_fails_the_query(self, observe, sql):
        from repro import PixelsDB

        db = PixelsDB(observe=observe, seed=5)
        db.load_tpch("tpch", scale=0.01)
        record = db.submit("tpch", sql, ServiceLevel.IMMEDIATE)
        db.run_to_completion()
        assert record.status is QueryStatus.FAILED
        assert "is not a query" in record.error
        assert db.query_server("tpch").total_billed_nanodollars() == 0
        ok = db.submit("tpch", "SELECT count(*) FROM nation")
        db.run_to_completion()
        assert ok.status is QueryStatus.FINISHED
