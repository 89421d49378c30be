"""Differential tests for the array join kernels and the key encoder.

The oracles are the kernels the current ones replaced, kept here
verbatim: a Python ``dict[tuple, list[int]]`` build and probe over
``.tolist()`` columns, ``np.unique(astype(str))`` for VARCHAR codes, and
the array probe that found each probe row's run of build rows with two
``np.searchsorted`` calls (the kernel now looks the run up by code).
Index arrays must agree *including order* — ascending left row, then
ascending right row — because LIMIT early-exit billing and result
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
    _join_codes,
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


def searchsorted_hash_join(left, right, left_keys, right_keys, is_left_join):
    """The replaced binary-search probe, over the same folded codes."""
    if not left_keys:
        left_indices = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_indices = np.tile(np.arange(right.num_rows), left.num_rows)
        return left_indices, right_indices
    if left.num_rows == 0 or right.num_rows == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    left_codes, right_codes, _ = _join_codes(left, right, left_keys, right_keys)
    # Build: right rows sorted by code.  The sort is stable, so rows of one
    # key stay in ascending row order — the output order contract.
    build_rows = np.flatnonzero(right_codes >= 0)
    build_rows = build_rows[np.argsort(right_codes[build_rows], kind="stable")]
    build_codes = right_codes[build_rows]
    # Probe: each left row matches one contiguous run of the build side.
    probe_rows = np.flatnonzero(left_codes >= 0)
    probe_codes = left_codes[probe_rows]
    run_starts = np.searchsorted(build_codes, probe_codes, side="left")
    counts = np.searchsorted(build_codes, probe_codes, side="right") - run_starts
    left_indices = np.repeat(probe_rows, counts)
    output_starts = np.cumsum(counts) - counts
    positions = np.arange(len(left_indices)) + np.repeat(
        run_starts - output_starts, counts
    )
    return left_indices, build_rows[positions]


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
#: Few distinct values over a range far wider than any side's rows: their
#: folded span is past twice the rows, so the probe ranks codes first.
WIDE_INTS = st.sampled_from([-(10**15), -7, 0, 3, 10**12, 2**62])
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
        (DataType.BIGINT, DataType.BIGINT, WIDE_INTS, WIDE_INTS),
        (DataType.BIGINT, DataType.DOUBLE, WIDE_INTS, DOUBLES),
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


def join_span(left, right, left_keys, right_keys):
    """Whether the probe addresses the folded codes directly ("dense") or
    ranks them first ("wide")."""
    span = _join_codes(left, right, left_keys, right_keys)[2]
    return "dense" if span <= 2 * (left.num_rows + right.num_rows) else "wide"


class TestProbeMatchesSearchsorted:
    """The per-code lookup against the binary-search probe it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(join_inputs(min_keys=0), st.booleans())
    def test_index_pairs_and_order(self, inputs, is_left_join):
        left, right, left_keys, right_keys = inputs
        got = execute_hash_join(left, right, left_keys, right_keys, is_left_join)
        expected = searchsorted_hash_join(
            left, right, left_keys, right_keys, is_left_join
        )
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    @staticmethod
    def _table(prefix, **columns):
        """``name=(dtype, values, null flags or None)`` columns."""
        table = {}
        for name, (dtype, values, nulls) in columns.items():
            numpy_dtype = object if dtype is DataType.VARCHAR else dtype.numpy_dtype
            table[f"{prefix}{name}"] = ColumnVector(
                dtype,
                np.array(values, dtype=numpy_dtype),
                None if nulls is None else np.array(nulls, dtype=bool),
            )
        return TableData(table)

    CASES = {
        # Duplicates on both sides, a NULL on each, one dense INT key.
        "dense_int": (
            {"k": (DataType.INT, [3, 1, 3, 0, 2, 3], [0, 0, 0, 1, 0, 0])},
            {"k": (DataType.INT, [3, 3, 2, 9, 0, 3], [0, 0, 0, 0, 1, 0])},
            "dense",
        ),
        # Values 10^12 apart: the span is far past the rows.
        "wide_bigint": (
            {"k": (DataType.BIGINT, [10**12, -5, 10**12, 2**62, 7], None)},
            {"k": (DataType.BIGINT, [2**62, 10**12, 10**12, -(10**15)], None)},
            "wide",
        ),
        # VARCHAR + INT, duplicated pairs on both sides, NULLs in each key.
        "varchar_and_int": (
            {
                "s": (DataType.VARCHAR, ["a", "b", "a", "", "a", None], [0, 0, 0, 0, 0, 1]),
                "n": (DataType.INT, [1, 1, 1, 2, 0, 1], [0, 0, 0, 0, 1, 0]),
            },
            {
                "s": (DataType.VARCHAR, ["a", "a", "", "b", "a"], None),
                "n": (DataType.INT, [1, 1, 2, 1, 0], [0, 0, 0, 0, 0]),
            },
            "dense",
        ),
        # -0.0 joins 0.0; NaN joins nothing; a NULL joins nothing.
        "double_signed_zero_nan": (
            {"d": (DataType.DOUBLE, [-0.0, float("nan"), 0.0, 1.5, 2.0], [0, 0, 0, 0, 1])},
            {"d": (DataType.DOUBLE, [0.0, float("nan"), 1.5, -0.0, 2.0], None)},
            "dense",
        ),
        # Two wide BIGINT keys whose radix product passes int64: the
        # combiner ranks the first, and the probe ranks the result.
        "wide_two_keys": (
            {
                "a": (DataType.BIGINT, [10**12, -(10**12), 10**12, 0], None),
                "b": (DataType.BIGINT, [-(10**12), 10**12, -(10**12), 0], None),
            },
            {
                "a": (DataType.BIGINT, [10**12, 0, 10**12], None),
                "b": (DataType.BIGINT, [-(10**12), 0, -(10**12)], None),
            },
            "wide",
        ),
        # Every key NULL on the build side: it has no valid code to rank.
        "no_valid_build_row": (
            {"k": (DataType.BIGINT, [10**12, 1], None)},
            {"k": (DataType.BIGINT, [10**12, 1], [1, 1])},
            "wide",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fixed_cases(self, case):
        left_cols, right_cols, span = self.CASES[case]
        left, right = self._table("l", **left_cols), self._table("r", **right_cols)
        left_keys, right_keys = list(left.columns), list(right.columns)
        assert join_span(left, right, left_keys, right_keys) == span
        got = execute_hash_join(left, right, left_keys, right_keys, False)
        expected = searchsorted_hash_join(left, right, left_keys, right_keys, False)
        loop = row_loop_hash_join(left, right, left_keys, right_keys)
        for side in (0, 1):
            assert np.array_equal(got[side], expected[side])
            assert np.array_equal(got[side], loop[side])
        if case != "no_valid_build_row":
            assert len(got[0])  # a vacuous agreement would prove nothing

    @pytest.mark.parametrize("empty", ["left", "right", "both"])
    def test_empty_sides(self, empty):
        full = self._table("x", k=(DataType.INT, [1, 2, 2], None))
        none = full.slice(0, 0)
        left = none if empty in ("left", "both") else full
        right = none if empty in ("right", "both") else full
        got = execute_hash_join(left, right, ["xk"], ["xk"], True)
        expected = searchsorted_hash_join(left, right, ["xk"], ["xk"], True)
        assert got[0].tolist() == expected[0].tolist() == []
        assert got[1].tolist() == expected[1].tolist() == []


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
