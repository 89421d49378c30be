"""Prepared plans equal fresh plans.

A coordinator plans a statement shape once and binds every other text of
it into that plan (:mod:`repro.engine.prepare`).  These tests fence the
bind: every text the wall-clock benchmark's decks can send, bound into a
template planned from another text of its shape, gives the fresh plan
node for node and in its EXPLAIN text; shape keys split texts exactly
by literal class; and each construct whose literal reaches something
the bind does not re-derive makes its shape parameter-free, through the
same cache.  The generated scan-predicate and GROUP BY differentials
run the same check (their "bound" configuration) on every statement.
"""

import random

import pytest

from repro import PixelsDB
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.prepare import (
    DECIMAL,
    INT32,
    INT64,
    REJECTED,
    STRING,
    bind,
    build_template,
    exact_shape,
    shape_of,
    slots_of,
)
from repro.engine.sql.parser import parse_sql
from repro.obs.fingerprint import fingerprint
from tests.scan_predicates import Differential, check_bound, dump
from tests.test_fingerprint import _deck_texts


def fresh(catalog, schema, sql):
    return Optimizer().optimize(Planner(catalog, schema).plan(parse_sql(sql)))


@pytest.fixture(scope="module")
def catalogs():
    db = PixelsDB(seed=1)
    db.load_tpch("tpch", scale=0.02)
    db.load_logs("logs", num_rows=500)
    return {schema: db.coordinator(schema).catalog for schema in ("tpch", "logs")}


class TestDeckTexts:
    def test_each_text_bound_from_another_variant(self, catalogs):
        """Each deck text, bound into the template planned from the next
        text of its shape, is its fresh plan; each shape's texts share
        one fingerprint, the fresh one."""
        shapes: dict[str, list[str]] = {}
        for sql in _deck_texts():
            shapes.setdefault(shape_of(sql).key, []).append(sql)
        parameter_free = []
        for texts in shapes.values():
            schema = "logs" if "web_logs" in texts[0] else "tpch"
            catalog = catalogs[schema]
            assert len({fingerprint(sql) for sql in texts}) == 1
            for index, sql in enumerate(texts):
                source = texts[(index + 1) % len(texts)]
                template = build_template(
                    catalog, schema, parse_sql(source), slots_of(source)
                )
                if template.parameter_free:
                    parameter_free.append(sql)
                    continue
                plan, expected = bind(template, shape_of(sql).literals), fresh(
                    catalog, schema, sql
                )
                assert dump(plan) == dump(expected), sql
                assert plan.explain() == expected.explain(), sql
        # The TPC-H and fleet decks share the point lookup's shape.
        assert len(shapes) == 32
        # Only hourly_traffic groups by an expression with literals.
        assert {sql.split(" AS ")[0] for sql in parameter_free} == {
            "SELECT CAST(ts / 3600"
        }

    def test_sibling_draws(self, catalogs):
        """Deck texts bound into the template of a re-drawn sibling, and a
        second sibling (edge values, dates that do not exist) bound into
        it too, plan or fail as they do fresh."""
        outcomes = []
        for sql in _deck_texts()[::5]:
            schema = "logs" if "web_logs" in sql else "tpch"
            found, _ = check_bound(catalogs[schema], schema, sql, random.Random(sql))
            outcomes += found
        assert outcomes.count("bound") > 200
        assert "fails alike" in outcomes  # a re-drawn DATE that does not exist


class TestShapeKeys:
    def test_literal_classes(self):
        shape = shape_of(
            "SELECT a FROM t WHERE b = 2147483647 AND c = 2147483648 "
            "AND d = 1.5 AND e = 1e5 AND f = 'x''y' AND g = DATE '1995-01-01'"
        )
        assert shape.literals == (
            2147483647, 2147483648, 1.5, 100000.0, "x'y", "1995-01-01"
        )
        assert [part for part in shape.key.split() if part.startswith("?")] == [
            INT32, INT64, DECIMAL, DECIMAL, STRING, STRING
        ]
        assert shape_of("SELECT 1e+ FROM t").key.split()[1] == REJECTED

    def test_texts_of_one_shape(self):
        same = [
            "SELECT a FROM t WHERE b > 5 LIMIT 3",
            "select  a\nFROM t -- comment\nWHERE b > 70 /* c */ LIMIT 0",
        ]
        assert shape_of(same[0]).key != shape_of(same[1]).key  # keyword case
        assert shape_of(same[0]).key == shape_of(same[0].replace("5", "6")).key
        assert shape_of(same[0]).key == shape_of(same[0].replace("  ", " ")).key
        other = [
            "SELECT a FROM t WHERE b > -5 LIMIT 3",  # a minus is a token
            "SELECT a FROM t WHERE b > 5.0 LIMIT 3",  # another class
            "SELECT a FROM t WHERE b > '5' LIMIT 3",
            'SELECT "a" FROM t WHERE b > 5 LIMIT 3',  # same identifier
        ]
        keys = [shape_of(sql).key for sql in other]
        assert len(set(keys[:3]) | {shape_of(same[0]).key}) == 4
        assert keys[3] == shape_of(same[0]).key

    def test_interval_quantity_is_part_of_the_key(self):
        sql = "SELECT a FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' DAY"
        assert shape_of(sql) == exact_shape(sql)
        assert shape_of(sql).literals == () and slots_of(sql) == ()
        assert shape_of(sql).key != shape_of(sql.replace("'3'", "'4'")).key


class TestParameterFree:
    """Each construct whose literal the bind cannot re-derive plans its
    text as it stands, with no slots."""

    @pytest.fixture(scope="class")
    def table(self):
        return Differential().catalog

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE 1 = 0",  # folded from two slots
            "SELECT id FROM t WHERE i > CAST('2' AS int)",  # folded from one
            "SELECT i + 1, count(*) FROM t GROUP BY i + 1",  # GROUP BY by value
            "SELECT id, i FROM t ORDER BY 2",  # an ORDER BY position
            "SELECT sum(i * 2), sum(i * 3) FROM t",  # aggregates that could merge
            "SELECT id FROM t WHERE d < '1994-08-25'",  # implicit DATE coercion
            "SELECT id FROM t WHERE id IN (SELECT b FROM t LIMIT 3)",  # under a join
        ],
    )
    def test_construct(self, table, sql):
        template = build_template(table, "d", parse_sql(sql), slots_of(sql))
        assert template.parameter_free
        assert dump(bind(template, ())) == dump(fresh(table, "d", sql))

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE i > -3 LIMIT 2 OFFSET 1",
            "SELECT sum(i * 2), sum(b * 2) FROM t",
            "SELECT id FROM t WHERE p LIKE 'ip-%' AND s IN ('a', '') AND d < DATE '1994-08-25'",
            "SELECT CASE WHEN i > 1 THEN 'x' ELSE 'y' END FROM t WHERE b BETWEEN -5 AND 7",
            "SELECT id FROM t ORDER BY id LIMIT 0",
            "SELECT id FROM t ORDER BY b DESC LIMIT 3 OFFSET 2",  # TopN under a Project
            "SELECT id FROM t OFFSET 4",
        ],
    )
    def test_bindable(self, table, sql):
        template = build_template(table, "d", parse_sql(sql), slots_of(sql))
        assert not template.parameter_free
        for seed in range(8):
            assert check_bound(table, "d", sql, random.Random(seed))[0][0] in (
                "bound", "sibling fails"
            )

    def test_through_the_coordinator(self):
        """Texts of a parameter-free shape are each planned once under
        their exact key, through the same shape cache."""
        db = PixelsDB(seed=1)
        db.load_tpch("tpch", scale=0.01)
        coordinator = db.coordinator("tpch")
        texts = [
            "SELECT count(*) FROM orders WHERE 1 = 0",
            "SELECT count(*) FROM orders WHERE 1 = 1",
            "SELECT count(*) FROM orders WHERE 1  = 1",
        ]
        plans = [coordinator._prepare(sql).plan for sql in texts]
        catalog = coordinator.catalog
        for sql, plan in zip(texts, plans):
            assert dump(plan) == dump(fresh(catalog, "tpch", sql))
        assert plans[2] is plans[1]  # one exact token stream, one plan
        assert len(coordinator.shapes) == 3  # the shape, two exact shapes
        assert coordinator.statement(texts[0]).fingerprint == fingerprint(texts[0])
