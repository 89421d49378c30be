"""Differential tests for the array join kernels and the key encoder.

The oracles are the row-at-a-time kernels the array versions replaced,
kept here verbatim: a Python ``dict[tuple, list[int]]`` build and probe
over ``.tolist()`` columns, and ``np.unique(astype(str))`` for VARCHAR
codes.  Index arrays must agree *including order* — ascending left row,
then ascending right row — because LIMIT early-exit billing and result
digests depend on it.  A second fence runs join statements through the
SQL path against stdlib ``sqlite3``, and a regression table pins the
int64 overflow the shared combiner used to hit.
"""

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.physical import (
    column_codes,
    execute_aggregate,
    execute_distinct,
    execute_hash_join,
    execute_semi_anti_join,
)
from repro.engine.plan import AggFunc, AggSpec
from repro.engine.planner import Planner
from repro.engine.source import InMemorySource
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.columnar import Encoding, decode_chunk, encode_chunk
from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType

# -- oracles: the replaced row loops ------------------------------------------


def _valid_mask(vector):
    if vector.nulls is None:
        return np.ones(len(vector), dtype=bool)
    return ~vector.nulls


def row_loop_hash_join(left, right, left_keys, right_keys):
    if not left_keys:
        left_indices = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_indices = np.tile(np.arange(right.num_rows), left.num_rows)
        return left_indices, right_indices
    build: dict[tuple, list[int]] = {}
    right_key_vectors = [right.column(name) for name in right_keys]
    right_valid = np.ones(right.num_rows, dtype=bool)
    for vector in right_key_vectors:
        right_valid &= _valid_mask(vector)
    right_rows = [vector.data.tolist() for vector in right_key_vectors]
    for index in np.flatnonzero(right_valid):
        key = tuple(column[index] for column in right_rows)
        build.setdefault(key, []).append(int(index))
    left_key_vectors = [left.column(name) for name in left_keys]
    left_valid = np.ones(left.num_rows, dtype=bool)
    for vector in left_key_vectors:
        left_valid &= _valid_mask(vector)
    left_rows = [vector.data.tolist() for vector in left_key_vectors]
    left_out: list[int] = []
    right_out: list[int] = []
    for index in np.flatnonzero(left_valid):
        key = tuple(column[index] for column in left_rows)
        matches = build.get(key)
        if matches:
            left_out.extend([int(index)] * len(matches))
            right_out.extend(matches)
    return (
        np.asarray(left_out, dtype=np.int64),
        np.asarray(right_out, dtype=np.int64),
    )


def row_loop_semi_anti_join(left, right, left_keys, right_keys, anti):
    if left.num_rows == 0:
        return left
    build_values: set[tuple] = set()
    right_has_null = False
    right_vectors = [right.column(name) for name in right_keys]
    if right.num_rows:
        right_valid = np.ones(right.num_rows, dtype=bool)
        for vector in right_vectors:
            right_valid &= _valid_mask(vector)
        right_has_null = not right_valid.all()
        right_rows = [vector.data.tolist() for vector in right_vectors]
        for index in np.flatnonzero(right_valid):
            build_values.add(tuple(column[index] for column in right_rows))
    if anti and right.num_rows == 0:
        return left  # x NOT IN (empty) is TRUE for every x
    if anti and right_has_null:
        return left.slice(0, 0)  # any NULL in S poisons NOT IN entirely
    left_vectors = [left.column(name) for name in left_keys]
    left_valid = np.ones(left.num_rows, dtype=bool)
    for vector in left_vectors:
        left_valid &= _valid_mask(vector)
    left_rows = [vector.data.tolist() for vector in left_vectors]
    matches = np.zeros(left.num_rows, dtype=bool)
    for index in np.flatnonzero(left_valid):
        key = tuple(column[index] for column in left_rows)
        if key in build_values:
            matches[index] = True
    if anti:
        return left.filter(left_valid & ~matches)
    return left.filter(matches)


def sorted_copy_codes(vector):
    """The replaced VARCHAR path of ``column_codes``."""
    uniques, inverse = np.unique(vector.data.astype(str), return_inverse=True)
    codes = inverse.astype(np.int64)
    if vector.nulls is not None:
        codes[vector.nulls] = len(uniques)
    return codes, uniques


# -- random key columns -------------------------------------------------------

# Small shared domains, so both sides are dense with duplicates and matches.
SMALL_INTS = st.integers(-3, 3)
DOUBLES = st.sampled_from(
    [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 0.5, -1.5, float("nan"), float("inf")]
)
STRINGS = st.sampled_from(["", "a", "b", "ab", "é", "日本", "ź", "None"])

#: (left type, right type, left values, right values) per admitted pairing:
#: the binder only lets same-type and numeric x numeric keys through.
KEY_PAIRS = st.sampled_from(
    [
        (DataType.INT, DataType.INT, SMALL_INTS, SMALL_INTS),
        (DataType.INT, DataType.BIGINT, SMALL_INTS, SMALL_INTS),
        (DataType.BIGINT, DataType.DOUBLE, SMALL_INTS, DOUBLES),
        (DataType.DOUBLE, DataType.DOUBLE, DOUBLES, DOUBLES),
        (DataType.DATE, DataType.DATE, st.integers(9000, 9004), st.integers(9000, 9004)),
        (DataType.BOOLEAN, DataType.BOOLEAN, st.booleans(), st.booleans()),
        (DataType.VARCHAR, DataType.VARCHAR, STRINGS, STRINGS),
    ]
)


@st.composite
def key_vector(draw, dtype, values, num_rows):
    """A column of ``num_rows`` values, about a fifth of them NULL.  VARCHAR
    NULL slots hold ``None`` or ``""`` — whatever object they hold, the
    kernels must never look at it."""
    cells = draw(
        st.lists(
            st.one_of(values, values, values, values, st.none()),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    nulls = np.array([cell is None for cell in cells], dtype=bool)
    if dtype is DataType.VARCHAR:
        filler = draw(st.sampled_from([None, ""]))
        data = np.array(
            [filler if cell is None else cell for cell in cells], dtype=object
        )
    else:
        filler = False if dtype is DataType.BOOLEAN else 0
        data = np.array(
            [filler if cell is None else cell for cell in cells],
            dtype=dtype.numpy_dtype,
        )
    return ColumnVector(dtype, data, nulls if nulls.any() else None)


@st.composite
def join_inputs(draw, min_keys=1):
    """Two tables with 0-3 (or ``min_keys``-3) key-column pairs plus a row
    id each; either side may be empty."""
    pairs = draw(st.lists(KEY_PAIRS, min_size=min_keys, max_size=3))
    left_rows = draw(st.integers(0, 25))
    right_rows = draw(st.integers(0, 25))
    left = {"l_id": ColumnVector(DataType.BIGINT, np.arange(left_rows))}
    right = {"r_id": ColumnVector(DataType.BIGINT, np.arange(right_rows))}
    for index, (left_type, right_type, left_values, right_values) in enumerate(pairs):
        left[f"l{index}"] = draw(key_vector(left_type, left_values, left_rows))
        right[f"r{index}"] = draw(key_vector(right_type, right_values, right_rows))
    left_keys = [f"l{index}" for index in range(len(pairs))]
    right_keys = [f"r{index}" for index in range(len(pairs))]
    return TableData(left), TableData(right), left_keys, right_keys


class TestJoinKernelsMatchRowLoop:
    @settings(max_examples=400, deadline=None)
    @given(join_inputs(min_keys=0), st.booleans())
    def test_hash_join_index_pairs_and_order(self, inputs, is_left_join):
        left, right, left_keys, right_keys = inputs
        got = execute_hash_join(left, right, left_keys, right_keys, is_left_join)
        expected = row_loop_hash_join(left, right, left_keys, right_keys)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    @settings(max_examples=400, deadline=None)
    @given(join_inputs(), st.booleans())
    def test_semi_and_anti_join_rows(self, inputs, anti):
        left, right, left_keys, right_keys = inputs
        got = execute_semi_anti_join(left, right, left_keys, right_keys, anti)
        expected = row_loop_semi_anti_join(left, right, left_keys, right_keys, anti)
        assert np.array_equal(
            got.column("l_id").data, expected.column("l_id").data
        )

    def test_nan_keys_never_match_and_negative_zero_does(self):
        left = TableData.from_rows(
            [("x", DataType.DOUBLE)], [(float("nan"),), (-0.0,), (1.0,)]
        )
        right = TableData.from_rows(
            [("y", DataType.DOUBLE)], [(0.0,), (float("nan"),), (float("nan"),)]
        )
        left_indices, right_indices = execute_hash_join(
            left, right, ["x"], ["y"], False
        )
        assert left_indices.tolist() == [1] and right_indices.tolist() == [0]
        # NaN is a value, not NULL: it does not poison NOT IN, and NaN on
        # the left passes it (nan <> everything).
        anti = execute_semi_anti_join(left, right, ["x"], ["y"], anti=True)
        assert np.isnan(anti.column("x").data[0])
        assert anti.column("x").data[1:].tolist() == [1.0]

    def test_integer_keys_spanning_the_int64_range(self):
        low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        left = TableData(
            {
                "a": ColumnVector(DataType.BIGINT, np.array([low, high, 0, high])),
                "b": ColumnVector(DataType.BIGINT, np.array([high, low, 0, low])),
            }
        )
        right = TableData(
            {
                "c": ColumnVector(DataType.BIGINT, np.array([high, 0, low])),
                "d": ColumnVector(DataType.BIGINT, np.array([low, 0, low])),
            }
        )
        for keys in ((["a"], ["c"]), (["a", "b"], ["c", "d"])):
            got = execute_hash_join(left, right, *keys, False)
            expected = row_loop_hash_join(left, right, *keys)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])


class TestColumnCodes:
    # ``<U`` arrays drop trailing NULs, so the replaced path could not tell
    # "a" from "a\0"; the comparison stays off that (fixed) corner.
    TEXT = st.text(
        alphabet=st.characters(
            min_codepoint=1, max_codepoint=0x2FFFF, exclude_categories=["Cs"]
        ),
        max_size=4,
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(TEXT, STRINGS), max_size=40))
    def test_varchar_codes_equal_the_sorted_copy_path(self, values):
        vector = ColumnVector(DataType.VARCHAR, np.array(values, dtype=object))
        codes, uniques = column_codes(vector)
        expected_codes, expected_uniques = sorted_copy_codes(vector)
        assert np.array_equal(codes, expected_codes)
        assert uniques.tolist() == expected_uniques.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 40))
    def test_null_slots_are_never_looked_at(self, data, num_rows):
        vector = data.draw(key_vector(DataType.VARCHAR, STRINGS, num_rows))
        codes, uniques = column_codes(vector)
        valid = _valid_mask(vector)
        expected_codes, expected_uniques = sorted_copy_codes(vector.filter(valid))
        assert np.array_equal(codes[valid], expected_codes)
        assert uniques.tolist() == expected_uniques.tolist()
        assert (codes[~valid] == len(uniques)).all()


# -- int64 overflow in the shared combiner ------------------------------------


def wide_key_table(prefix: str = "c") -> TableData:
    """Five BIGINT columns x 65 536 distinct rows whose cardinalities
    multiply to 65 537 * 2^64: a wrapping mixed-radix product multiplies
    c0 by 2^64 = 0, so rows 0 and 1 — equal in c1..c4 — collapse."""
    base = np.arange(65_536, dtype=np.int64)
    duplicated = base.copy()
    duplicated[1] = duplicated[0]
    columns = {f"{prefix}0": ColumnVector(DataType.BIGINT, base)}
    for index in range(1, 5):
        columns[f"{prefix}{index}"] = ColumnVector(DataType.BIGINT, duplicated.copy())
    return TableData(columns)


class TestCombinedCodesDoNotWrap:
    def test_distinct_keeps_every_distinct_row(self):
        table = wide_key_table()
        assert execute_distinct(table).num_rows == table.num_rows

    def test_group_by_keeps_every_group(self):
        table = wide_key_table()
        grouped = execute_aggregate(
            table,
            table.column_names,
            [AggSpec(AggFunc.COUNT, None, "n")],
        )
        assert grouped.num_rows == table.num_rows
        assert grouped.column("n").data.tolist() == [1] * table.num_rows

    def test_five_column_join_matches_each_row_once(self):
        left, right = wide_key_table("l"), wide_key_table("r")
        left_indices, right_indices = execute_hash_join(
            left, right, left.column_names, right.column_names, False
        )
        everyone = np.arange(left.num_rows)
        assert np.array_equal(left_indices, everyone)
        assert np.array_equal(right_indices, everyone)


# -- SQL path vs sqlite3 ------------------------------------------------------

A_SCHEMA = [
    ("id", DataType.INT),
    ("k", DataType.INT),
    ("n", DataType.INT),
    ("s1", DataType.VARCHAR),
    ("s2", DataType.VARCHAR),
]
B_SCHEMA = [
    ("bid", DataType.INT),
    ("bk", DataType.INT),
    ("bn", DataType.INT),
    ("t1", DataType.VARCHAR),
    ("t2", DataType.VARCHAR),
]
A_ROWS = [
    (1, 10, 1, "x", "p"),
    (2, 10, None, "x", "q"),
    (3, 20, 2, "é", ""),
    (4, 30, None, "", "p"),
    (5, 40, 3, "x", "p"),
    (6, 50, 2, None, "p"),
]
B_ROWS = [
    (1, 10, 1, "x", "p"),
    (2, 10, 2, "x", "p"),
    (3, 20, None, "é", ""),
    (4, 20, 2, "x", None),
    (5, 60, None, "", "q"),
    (6, 10, 1, "é", ""),
]

JOIN_STATEMENTS = {
    "inner_duplicate_keys": "SELECT a.id, b.bid FROM a JOIN b ON a.k = b.bk",
    "left_unmatched_rows": "SELECT a.id, b.bid FROM a LEFT JOIN b ON a.k = b.bk",
    "two_column_varchar_key": (
        "SELECT a.id, b.bid FROM a JOIN b ON a.s1 = b.t1 AND a.s2 = b.t2"
    ),
    "null_keys": "SELECT a.id, b.bid FROM a JOIN b ON a.n = b.bn",
    "not_in_with_null_in_subquery": (
        "SELECT id FROM a WHERE k NOT IN (SELECT bn FROM b)"
    ),
    "varchar_group_by": "SELECT s1, s2, count(*) AS n FROM a GROUP BY s1, s2",
    "left_join_varchar_key": (
        "SELECT a.id, b.bid, b.t2 FROM a LEFT JOIN b ON a.s1 = b.t1"
    ),
}


def dictionary_coded(table: TableData) -> TableData:
    """``table`` with every VARCHAR column through the DICT codec in
    3-row chunks: coded vectors over different, unified dictionaries."""

    def coded(vector):
        if vector.dtype is not DataType.VARCHAR:
            return vector
        pieces = [
            decode_chunk(
                encode_chunk(vector.slice(start, start + 3), Encoding.DICT),
                DataType.VARCHAR,
                Encoding.DICT,
            )
            for start in range(0, len(vector), 3)
        ]
        return ColumnVector.concat_all(pieces)

    return TableData({name: coded(vector) for name, vector in table.columns.items()})


@pytest.fixture(scope="module")
def engines():
    catalog = Catalog()
    catalog.create_schema("j")
    for name, schema in (("a", A_SCHEMA), ("b", B_SCHEMA)):
        catalog.create_table(
            "j", name, [ColumnMeta(column, dtype) for column, dtype in schema]
        )
    tables = {
        ("j", "a"): TableData.from_rows(A_SCHEMA, A_ROWS),
        ("j", "b"): TableData.from_rows(B_SCHEMA, B_ROWS),
    }
    planner, optimizer = Planner(catalog, "j"), Optimizer()
    lite = sqlite3.connect(":memory:")
    for name, schema, rows in (("a", A_SCHEMA, A_ROWS), ("b", B_SCHEMA, B_ROWS)):
        lite.execute(f"CREATE TABLE {name} ({', '.join(c for c, _ in schema)})")
        lite.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(schema))})", rows
        )

    def ours(sql):
        """The statement's rows over plain, then over coded, VARCHAR columns."""
        plan = optimizer.optimize(planner.plan_sql(sql))
        for represent in (lambda table: table, dictionary_coded):
            source = InMemorySource(
                {key: represent(table) for key, table in tables.items()}
            )
            yield QueryExecutor(source).execute(plan).rows()

    yield ours, lambda sql: lite.execute(sql).fetchall()
    lite.close()


@pytest.mark.parametrize("name", JOIN_STATEMENTS)
def test_join_statement_matches_sqlite(engines, name):
    ours, reference = engines
    sql = JOIN_STATEMENTS[name]
    for rows in ours(sql):
        assert sorted(rows, key=repr) == sorted(reference(sql), key=repr)
        if name != "not_in_with_null_in_subquery":
            assert rows  # a vacuous agreement would prove nothing
