"""The two VARCHAR representations cannot disagree.

A dictionary-coded :class:`ColumnVector` (int codes into a distinct
dictionary — what a DICT chunk decodes to) and its materialised plain twin
(an object array of strings) must be indistinguishable to every consumer:
vector surgery, ``column_codes``, every expression node, the blocking
kernels and the joins.  Columns are drawn with
NULLs, ``""``, non-ASCII and astral code points, a trailing NUL, duplicates,
and 1-5 pieces whose dictionaries differ in order and hold values no row
uses.  The second half runs SQL end to end over a stored table with several
dictionaries per column, checks where the strings get built (inside the
public read calls, for the surviving rows) and how many.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import QueryExecutor
from repro.engine.expr import (
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundComparison,
    BoundConcat,
    BoundInList,
    BoundLike,
    BoundLiteral,
    BoundScalarFunction,
    _per_value,
)
from repro.engine.optimizer import Optimizer
from repro.engine.physical import (
    column_codes,
    execute_aggregate,
    execute_distinct,
    execute_hash_join,
    execute_semi_anti_join,
    execute_sort,
    execute_top_n,
    join_tables,
)
from repro.engine.plan import AggFunc, AggSpec
from repro.engine.planner import Planner
from repro.engine.source import InMemorySource, ObjectStoreSource
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.file_format import PixelsReader
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableData, TableReader, TableWriter
from repro.storage.types import CodedVector, ColumnVector, DataType

VARCHAR = DataType.VARCHAR
WORDS = st.one_of(
    st.sampled_from(
        ["", "a", "a\x00", "b", "B", "ab", "Ab", "é", "ß", "\U0001F600", "￿", "zz"]
    ),
    st.text(max_size=3),
)
DIGITS = st.sampled_from(["1", "22", "7", "-3", "007"])
OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def coded_piece(draw, cells, words) -> ColumnVector:
    """``cells`` (``None`` = NULL) over a dictionary of their distinct
    values plus some no row uses, in a drawn order; NULL slots carry an
    arbitrary in-range code."""
    entries = {cell for cell in cells if cell is not None}
    entries |= set(draw(st.lists(words, max_size=2)))
    if cells and not entries:
        entries = {draw(words)}  # all NULL: the slots still need a code
    dictionary = draw(st.permutations(sorted(entries)))
    index = {value: code for code, value in enumerate(dictionary)}
    codes = [
        index[cell]
        if cell is not None
        else draw(st.integers(0, len(dictionary) - 1))
        for cell in cells
    ]
    nulls = np.array([cell is None for cell in cells], dtype=bool)
    return ColumnVector.from_codes(
        np.array(codes, dtype=np.int32),
        np.array(dictionary, dtype=object),
        nulls if nulls.any() else None,
    )


@st.composite
def coded_pieces(draw, words=WORDS, num_rows=None):
    """A column as 1-5 coded pieces (some possibly empty) with *different*
    dictionaries."""
    size = {} if num_rows is None else {"min_size": num_rows}
    cells = draw(
        st.lists(
            st.one_of(words, words, words, st.none()),
            max_size=30 if num_rows is None else num_rows,
            **size,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(cells)), max_size=4)))
    bounds = [0, *cuts, len(cells)]
    return [
        coded_piece(draw, cells[start:stop], words)
        for start, stop in zip(bounds, bounds[1:])
    ]


def plain(vector: ColumnVector) -> ColumnVector:
    """The plain twin, built without going through ``vector.data``."""
    data = np.array(
        [vector.dictionary[code] for code in vector.codes.tolist()], dtype=object
    )
    return ColumnVector(VARCHAR, data, vector.nulls)


@st.composite
def twin_tables(draw, columns, ints=()):
    """``(coded, plain)`` tables of equal content: VARCHAR ``columns``
    (name -> word strategy) coded in the first, plain in the second, plus
    shared BIGINT columns."""
    num_rows = draw(st.integers(0, 30))
    coded, twin = {}, {}
    for name, words in columns.items():
        vector = ColumnVector.concat_all(draw(coded_pieces(words, num_rows)))
        coded[name], twin[name] = vector, plain(vector)
    for name in ints:
        data = np.array(
            draw(st.lists(st.integers(-3, 3), min_size=num_rows, max_size=num_rows)),
            dtype=np.int64,
        )
        coded[name] = twin[name] = ColumnVector(DataType.BIGINT, data)
    return TableData(coded), TableData(twin)


def unbuilt(vector: ColumnVector) -> bool:
    """Coded, and nothing has made it build its strings."""
    return vector.codes is not None and vector._data is None


# -- vector surgery -------------------------------------------------------------


class TestVectorSurgery:
    @settings(max_examples=150, deadline=None)
    @given(coded_pieces(), st.data())
    def test_take_filter_slice_concat(self, pieces, data):
        coded = ColumnVector.concat_all(pieces)
        twin = ColumnVector.concat_all([plain(piece) for piece in pieces])
        assert unbuilt(coded) and twin.codes is None
        assert len(set(coded.dictionary.tolist())) == len(coded.dictionary)
        assert len(coded) == len(twin)
        assert coded.null_count == twin.null_count
        num_rows = len(coded)
        indices = np.array(
            data.draw(st.lists(st.integers(0, max(num_rows - 1, 0)), max_size=12))
            if num_rows
            else [],
            dtype=np.int64,
        )
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows)),
            dtype=bool,
        )
        start = data.draw(st.integers(0, num_rows))
        stop = data.draw(st.integers(start, num_rows))
        for got, expected in (
            (coded.take(indices), twin.take(indices)),
            (coded.filter(mask), twin.filter(mask)),
            (coded.slice(start, stop), twin.slice(start, stop)),
        ):
            assert unbuilt(got)
            assert got.dictionary is coded.dictionary
            assert got.to_values() == expected.to_values()
        assert coded.to_values() == twin.to_values()
        # Built once, kept, and a plain object array from then on.
        assert coded.data is coded.data and coded.data.dtype == object

    @settings(max_examples=60, deadline=None)
    @given(coded_pieces(), st.data())
    def test_slices_of_one_vector_concatenate_without_unifying(self, pieces, data):
        coded = ColumnVector.concat_all(pieces)
        cut = data.draw(st.integers(0, len(coded)))
        merged = ColumnVector.concat_all(
            [coded.slice(0, cut), coded.slice(cut, len(coded))]
        )
        assert merged.dictionary is coded.dictionary
        assert merged.to_values() == coded.to_values()

    @settings(max_examples=60, deadline=None)
    @given(coded_pieces(), st.data())
    def test_mixed_representations_concatenate_plain(self, pieces, data):
        as_plain = data.draw(
            st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces))
        )
        mixed = [
            plain(piece) if flag else piece for piece, flag in zip(pieces, as_plain)
        ]
        merged = ColumnVector.concat_all(mixed)
        expected = [value for piece in pieces for value in plain(piece).to_values()]
        assert merged.to_values() == expected
        if len(pieces) > 1 and any(as_plain):
            assert merged.codes is None

    def test_materialize_is_the_identity_on_plain_vectors(self):
        vector = ColumnVector.from_values(VARCHAR, ["a", None])
        assert vector.materialize() is vector
        coded = ColumnVector.from_codes(
            np.array([1, 0], dtype=np.int32), np.array(["x", "y"], dtype=object)
        )
        built = coded.materialize()
        assert built.codes is None and built.data.tolist() == ["y", "x"]

    def test_null_mask_length_is_checked_against_the_codes(self):
        with pytest.raises(ValueError):
            ColumnVector.from_codes(
                np.zeros(3, dtype=np.int32),
                np.array(["x"], dtype=object),
                np.zeros(2, dtype=bool),
            )


# -- column_codes ---------------------------------------------------------------


class TestColumnCodes:
    @settings(max_examples=200, deadline=None)
    @given(coded_pieces(), st.booleans())
    def test_same_partition_and_same_order(self, pieces, ordered):
        coded = ColumnVector.concat_all(pieces)
        twin = plain(coded)
        got, got_uniques = column_codes(coded, ordered=ordered)
        expected, expected_uniques = column_codes(twin, ordered=ordered)
        assert unbuilt(coded)  # the stored codes were reused
        assert got.dtype == np.int64
        values = twin.to_values()
        for codes, uniques in ((got, got_uniques), (expected, expected_uniques)):
            for code, value in zip(codes.tolist(), values):
                if value is None:
                    assert code == len(uniques)
                else:
                    assert uniques[code] == value
        # Equal codes <=> equal values, on both sides alike.
        assert len(set(zip(got.tolist(), expected.tolist()))) == len(set(got.tolist()))
        assert len(set(got.tolist())) == len(set(expected.tolist()))
        if ordered:
            assert np.array_equal(
                np.unique(got, return_inverse=True)[1],
                np.unique(expected, return_inverse=True)[1],
            )
            assert got_uniques.tolist() == sorted(got_uniques.tolist())

    def test_ordered_ranks_by_code_point(self):
        dictionary = np.array(["\U0001F600", "é", "a\x00", "B", "a", "￿"], dtype=object)
        coded = ColumnVector.from_codes(np.arange(6, dtype=np.int32), dictionary)
        codes, uniques = column_codes(coded)
        assert uniques.tolist() == ["B", "a", "a\x00", "é", "￿", "\U0001F600"]
        assert codes.tolist() == [5, 3, 2, 0, 1, 4]


# -- expressions ----------------------------------------------------------------

S = BoundColumn("t.s", VARCHAR)
U = BoundColumn("t.u", VARCHAR)
D = BoundColumn("t.d", VARCHAR)


def lit(value) -> BoundLiteral:
    return BoundLiteral(value, VARCHAR)


def number(value: int) -> BoundLiteral:
    return BoundLiteral(value, DataType.INT)


def evaluations(expr, coded: TableData, twin: TableData) -> list[list]:
    """``expr`` over the coded table and over its plain twin."""
    return [expr.evaluate(coded).to_values(), expr.evaluate(twin).to_values()]


def assert_all_equal(results: list[list], context: str) -> list:
    for other in results[1:]:
        assert other == results[0], context
    return results[0]


EXPR_TABLES = twin_tables({"t.s": WORDS, "t.u": WORDS, "t.d": DIGITS}, ints=["t.k"])


class TestExpressions:
    @settings(max_examples=120, deadline=None)
    @given(EXPR_TABLES, WORDS)
    def test_comparisons_against_a_literal_and_a_column(self, tables, word):
        coded, twin = tables
        column = twin.column("t.s").to_values()
        other = twin.column("t.u").to_values()
        for op, python_op in OPS.items():
            for expr, expected in (
                (
                    BoundComparison.bind(op, S, lit(word)),
                    [None if v is None else python_op(v, word) for v in column],
                ),
                (
                    BoundComparison.bind(op, lit(word), S),
                    [None if v is None else python_op(word, v) for v in column],
                ),
                (
                    BoundComparison.bind(op, S, U),
                    [
                        None if a is None or b is None else python_op(a, b)
                        for a, b in zip(column, other)
                    ],
                ),
                (BoundComparison.bind(op, S, lit(None)), [None] * len(column)),
            ):
                got = assert_all_equal(evaluations(expr, *tables), expr.to_sql())
                assert got == expected, expr.to_sql()

    @settings(max_examples=100, deadline=None)
    @given(
        EXPR_TABLES,
        st.lists(WORDS, min_size=1, max_size=3),
        st.sampled_from(["%", "a%", "%b", "_", "a_", "%\x00", "é%", "", "%a%"]),
        st.booleans(),
    )
    def test_in_like_and_case(self, tables, members, pattern, negated):
        column = tables[1].column("t.s").to_values()
        in_list = BoundInList(S, tuple(members), negated=negated)
        got = assert_all_equal(evaluations(in_list, *tables), in_list.to_sql())
        assert got == [
            None if v is None else (v in members) != negated for v in column
        ]
        like = BoundLike(S, pattern, negated=negated)
        assert_all_equal(evaluations(like, *tables), like.to_sql())
        for else_ in (U, None):
            case = BoundCase(
                ((in_list, S), (like, lit("liked"))), else_, VARCHAR
            )
            assert_all_equal(evaluations(case, *tables), case.to_sql())

    @settings(max_examples=100, deadline=None)
    @given(EXPR_TABLES, st.integers(0, 3), st.integers(0, 3))
    def test_string_functions_cast_and_concat(self, tables, start, length):
        column = tables[1].column("t.s").to_values()
        for expr, reference in (
            (BoundScalarFunction.bind("upper", (S,)), str.upper),
            (BoundScalarFunction.bind("lower", (S,)), str.lower),
            (BoundScalarFunction.bind("length", (S,)), len),
            (
                BoundScalarFunction.bind(
                    "substring", (S, number(start), number(length))
                ),
                lambda v: v[max(start - 1, 0) : max(start - 1, 0) + length],
            ),
            (BoundCast(S, VARCHAR), lambda v: v),
        ):
            got = assert_all_equal(evaluations(expr, *tables), expr.to_sql())
            assert got == [None if v is None else reference(v) for v in column]
        for expr in (
            BoundCast(D, DataType.INT),
            BoundConcat.bind(S, U),
            BoundConcat.bind(BoundScalarFunction.bind("upper", (S,)), lit("!")),
            # a function may merge dictionary values: grouping must not see two
            BoundComparison.bind(
                "=", BoundScalarFunction.bind("upper", (S,)), lit("A")
            ),
        ):
            assert_all_equal(evaluations(expr, *tables), expr.to_sql())

    def test_a_dictionary_larger_than_the_batch_is_not_walked(self):
        # After a selective filter a batch may hold far fewer rows than its
        # dictionary has entries; the per-value rule then works row by row.
        dictionary = np.array([f"v{index}" for index in range(50)], dtype=object)
        few = ColumnVector.from_codes(np.array([3, 3, 7], dtype=np.int32), dictionary)
        many = few.take(np.arange(60) % 3)
        walked = []

        def is_v3(values):
            walked.append(len(values))
            return values == "v3"

        assert _per_value(few, is_v3).tolist() == [True, True, False]
        assert _per_value(many, is_v3).tolist() == [True, True, False] * 20
        assert walked == [3, 50]


# -- blocking kernels -----------------------------------------------------------

KERNEL_TABLES = twin_tables(
    {"t.g": WORDS, "t.h": st.sampled_from(["", "x", "y", "é"]), "t.s": WORDS},
    ints=["t.k"],
)


class TestKernels:
    @settings(max_examples=120, deadline=None)
    @given(KERNEL_TABLES, st.sampled_from([["t.g"], ["t.g", "t.h"], ["t.h", "t.k"], []]))
    def test_aggregate(self, tables, keys):
        aggregates = [
            AggSpec(AggFunc.COUNT, None, "n"),
            AggSpec(AggFunc.COUNT, "t.s", "non_null"),
            AggSpec(AggFunc.COUNT, "t.s", "d", distinct=True),
            AggSpec(AggFunc.MIN, "t.s", "lo", dtype=VARCHAR),
            AggSpec(AggFunc.MAX, "t.s", "hi", dtype=VARCHAR),
            AggSpec(AggFunc.SUM, "t.k", "total"),
        ]
        coded, twin = tables
        got = execute_aggregate(coded, keys, aggregates)
        for key in keys:  # group keys are gathered by code, never built
            if coded.column(key).dtype is VARCHAR:
                assert unbuilt(coded.column(key)) and unbuilt(got.column(key))
        assert got.to_rows() == execute_aggregate(twin, keys, aggregates).to_rows()

    @settings(max_examples=120, deadline=None)
    @given(
        KERNEL_TABLES,
        st.lists(
            st.tuples(st.sampled_from(["t.g", "t.h", "t.k", "t.s"]), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 8),
        st.integers(0, 4),
    )
    def test_sort_top_n_distinct(self, tables, keys, limit, offset):
        coded, twin = tables
        names = [name for name, _ in keys]
        got = (
            execute_sort(coded, keys),
            execute_top_n(coded, keys, limit, offset),
            execute_distinct(coded.select(names)),
        )
        assert all(  # ranked, selected and de-duplicated by code alone
            unbuilt(vector)
            for table in (coded, *got)
            for vector in table.columns.values()
            if vector.dtype is VARCHAR
        )
        expected = (
            execute_sort(twin, keys),
            execute_top_n(twin, keys, limit, offset),
            execute_distinct(twin.select(names)),
        )
        for ours, theirs in zip(got, expected):
            assert ours.to_rows() == theirs.to_rows()


JOIN_SIDES = twin_tables(
    {"g": st.sampled_from(["", "x", "y", "é", "x\x00"]), "h": st.sampled_from(["p", "q"])},
    ints=["id"],
)


def renamed(table: TableData, prefix: str) -> TableData:
    return table.rename({name: prefix + name for name in table.column_names})


class TestJoins:
    @settings(max_examples=150, deadline=None)
    @given(JOIN_SIDES, JOIN_SIDES, st.sampled_from([["g"], ["g", "h"]]), st.data())
    def test_every_join_kind_on_varchar_keys(self, left, right, keys, data):
        left_keys = ["l." + key for key in keys]
        right_keys = ["r." + key for key in keys]
        plain_left, plain_right = renamed(left[1], "l."), renamed(right[1], "r.")
        # coded x coded, and coded x plain (which falls back to hashing)
        right_coded = data.draw(st.booleans())
        coded_left = renamed(left[0], "l.")
        coded_right = renamed(right[0], "r.") if right_coded else plain_right
        for is_left_join in (False, True):
            got = execute_hash_join(
                coded_left, coded_right, left_keys, right_keys, is_left_join
            )
            expected = execute_hash_join(
                plain_left, plain_right, left_keys, right_keys, is_left_join
            )
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
            joined = join_tables(coded_left, coded_right, *got, is_left_join)
            # A gather shares the dictionary; LEFT-join padding (plain, all
            # NULL) de-codes the padded side only.
            assert unbuilt(joined.column("l.g"))
            assert (
                joined.to_rows()
                == join_tables(plain_left, plain_right, *expected, is_left_join).to_rows()
            )
        semi_anti = [
            execute_semi_anti_join(coded_left, coded_right, left_keys, right_keys, anti)
            for anti in (False, True)
        ]
        if right_coded:  # two coded sides unify dictionaries: no string built
            assert unbuilt(coded_left.column("l.g"))
            assert unbuilt(coded_right.column("r.g"))
        for anti, got in zip((False, True), semi_anti):
            expected = execute_semi_anti_join(
                plain_left, plain_right, left_keys, right_keys, anti
            )
            assert got.to_rows() == expected.to_rows()


# -- SQL end to end over a stored table ------------------------------------------

NUM_ROWS = 203
ROWS_PER_GROUP = 16  # 13 row groups: 13 dictionaries per DICT column
T_SCHEMA = [
    ("k", DataType.INT),
    ("g", VARCHAR),  # 4 values; 16 % 3 != 0, so dictionary order varies by group
    ("h", VARCHAR),  # NULLs, "" and non-ASCII
    ("x", DataType.BIGINT),
    ("u", VARCHAR),  # unique: the writer stores it PLAIN
]
U_SCHEMA = [("uk", DataType.INT), ("ug", VARCHAR), ("tag", VARCHAR)]


def t_rows() -> list[tuple]:
    groups = ["GET", "POST", "é-put"]
    marks = ["", "x", None, "\U0001F600", "x"]
    return [
        (
            index,
            "a\x00" if index % 29 == 0 else groups[index % 3],
            marks[index % 5],
            index % 7,
            f"row-{index:03d}",
        )
        for index in range(NUM_ROWS)
    ]


def u_rows() -> list[tuple]:
    return [
        (index, ["POST", "é-put", None, "nope"][index % 4], ["p", "q"][index % 2])
        for index in range(40)
    ]


@pytest.fixture(scope="module")
def stored():
    store = ObjectStore()
    store.create_bucket("warehouse")
    catalog = Catalog()
    catalog.create_schema("d")
    tables = {}
    for name, schema, rows in (("t", T_SCHEMA, t_rows()), ("u", U_SCHEMA, u_rows())):
        catalog.create_table(
            "d",
            name,
            [ColumnMeta(column, dtype) for column, dtype in schema],
            bucket="warehouse",
            prefix=f"d/{name}",
        )
        tables[("d", name)] = TableData.from_rows(schema, rows)
        TableWriter(
            store, "warehouse", f"d/{name}", rows_per_file=80, rows_per_group=ROWS_PER_GROUP
        ).write(tables[("d", name)])
    return store, catalog, tables


def run(stored, sql, source=None, **options):
    store, catalog, _ = stored
    plan = Optimizer().optimize(Planner(catalog, "d").plan_sql(sql))
    return QueryExecutor(source or ObjectStoreSource(store), **options).execute(plan)


STATEMENTS = {
    # q1's shape: numeric filter, two DICT group keys, ordered by them
    "q1": "SELECT g, h, sum(x) AS total, count(*) AS n FROM t WHERE k <= 180 "
    "GROUP BY g, h ORDER BY g, h",
    # q12's shape: IN on the probe side, CASE over the build side's DICT column
    "q12": "SELECT t.g, sum(CASE WHEN u.tag = 'p' OR u.tag = 'zz' THEN 1 ELSE 0 END) "
    "AS p_count, sum(CASE WHEN u.tag <> 'p' AND u.tag <> 'zz' THEN 1 ELSE 0 END) "
    "AS other FROM u JOIN t ON u.uk = t.x WHERE t.g IN ('GET', 'é-put') "
    "AND t.k >= 20 GROUP BY t.g ORDER BY t.g",
    # hourly_traffic's shape: VARCHAR equality, grouped by a computed integer
    "hourly": "SELECT CAST(k / 10 AS int) % 4 AS bucket, count(*) AS hits FROM t "
    "WHERE g = 'POST' AND k >= 16 GROUP BY CAST(k / 10 AS int) % 4 ORDER BY bucket",
    "nul_and_range": "SELECT k FROM t WHERE g = 'a' OR g >= 'a\x00' AND h < 'y'",
    "like_upper": "SELECT k, upper(g) AS shout FROM t WHERE g LIKE '%T' "
    "AND length(h) = 1 ORDER BY k DESC LIMIT 9",
    "order_by_dict": "SELECT k, g, h FROM t ORDER BY h DESC, g, k LIMIT 50",
    "distinct": "SELECT DISTINCT g, h FROM t",
    "min_max_distinct": "SELECT h, min(g) AS lo, max(g) AS hi, count(DISTINCT g) AS d, "
    "count(DISTINCT u) AS du FROM t GROUP BY h",
    "varchar_key_left_join": "SELECT t.k, t.g, u.uk, u.ug FROM t LEFT JOIN u ON t.g = u.ug "
    "WHERE t.k < 40 ORDER BY t.k, u.uk",
    "varchar_key_semi_join": "SELECT k FROM t WHERE g IN (SELECT ug FROM u WHERE uk > 3) "
    "ORDER BY k",
    "concat_and_case": "SELECT k, g || '/' || u AS path, CASE WHEN h = 'x' THEN g ELSE h END "
    "AS pick FROM t WHERE k % 9 = 0",
    "union": "SELECT g FROM t WHERE k < 5 UNION ALL SELECT ug FROM u WHERE uk < 5",
}


class TestStoredTable:
    def test_the_writer_dictionary_encodes_what_the_tests_assume(self, stored):
        store, _, _ = stored
        reader = PixelsReader(store, "warehouse", "d/t/part-0.pxl")
        groups = list(reader.iter_groups())
        assert len(groups) == 80 // ROWS_PER_GROUP
        assert all(unbuilt(group[name]) for group in groups for name in ("g", "h"))
        assert all(group["u"].codes is None for group in groups)
        orders = {tuple(group["g"].dictionary.tolist()) for group in groups}
        assert len(orders) > 1  # several dictionaries per column
        assert unbuilt(reader.read_group(1, ["g"])["g"])

    @pytest.mark.parametrize("name", STATEMENTS)
    def test_matches_the_plain_in_memory_engine(self, stored, name):
        expected = run(stored, STATEMENTS[name], InMemorySource(stored[2]))
        assert expected.num_rows > 0
        for options in ({}, {"batch_size": 5}, {"workers": 3}):
            got = run(stored, STATEMENTS[name], **options)
            assert got.column_names == expected.column_names
            assert got.rows() == expected.rows(), options

    @pytest.mark.parametrize("name", STATEMENTS)
    def test_results_are_plain_when_execute_returns(self, stored, name):
        """The strings are built on the clock: nothing lazy leaves
        ``QueryExecutor.execute``."""
        for options in ({}, {"workers": 3}):
            result = run(stored, STATEMENTS[name], **options)
            for vector in result.data.columns.values():
                assert type(vector) is ColumnVector
                assert isinstance(vector.data, np.ndarray)
                assert vector.data.dtype == vector.dtype.numpy_dtype

    def test_storage_reads_are_plain_when_they_return(self, stored):
        store, _, tables = stored
        scan = TableReader(store, "warehouse", "d/t").scan()
        assert scan.data.to_rows() == tables[("d", "t")].to_rows()
        read = PixelsReader(store, "warehouse", "d/t/part-1.pxl").read(["g", "h"])
        pruned = PixelsReader(store, "warehouse", "d/t/part-1.pxl").read(
            ["g"], ranges={"k": (1000, None)}
        )
        for vector in (*scan.data.columns.values(), *read.values(), *pruned.values()):
            assert type(vector) is ColumnVector
            assert vector.data.dtype == vector.dtype.numpy_dtype
        assert len(pruned["g"]) == 0

    def test_a_stream_may_yield_coded_columns(self, stored):
        store, catalog, _ = stored
        plan = Optimizer().optimize(Planner(catalog, "d").plan_sql("SELECT g FROM t"))
        stream = QueryExecutor(ObjectStoreSource(store)).execute_stream(plan)
        assert all(unbuilt(batch.column("g")) for batch in stream.batches())

    @pytest.mark.parametrize("name", ["q1", "q12", "hourly"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_materialisation_budget(self, stored, monkeypatch, name, workers):
        """No more strings are built than the result holds — the test that
        fails when a hot path quietly falls back to ``.data``."""
        built = []
        build = CodedVector.data.fget

        def counting(vector):
            if vector._data is None:
                built.append(len(vector.codes))
            return build(vector)

        monkeypatch.setattr(CodedVector, "data", property(counting))
        result = run(stored, STATEMENTS[name], workers=workers)
        held = sum(
            len(vector)
            for vector in result.data.columns.values()
            if vector.dtype is VARCHAR
        )
        assert result.num_rows > 0
        assert sum(built) <= held


class TestComparisonRegressions:
    """``astype(str)`` made ``<U`` copies, which drop trailing NULs."""

    ROWS = [(1, "a\x00"), (2, "a"), (3, "b"), (4, None)]

    @pytest.fixture(params=["plain", "coded"])
    def run_sql(self, request):
        catalog = Catalog()
        catalog.create_schema("p")
        catalog.create_table(
            "p", "t", [ColumnMeta("k", DataType.INT), ColumnMeta("s", VARCHAR)]
        )
        table = TableData.from_rows([("k", DataType.INT), ("s", VARCHAR)], self.ROWS)
        if request.param == "coded":
            coded = ColumnVector.from_codes(
                np.array([2, 0, 1, 1], dtype=np.int32),
                np.array(["a", "b", "a\x00"], dtype=object),
                table.column("s").nulls,
            )
            table = TableData({"k": table.column("k"), "s": coded})
        executor = QueryExecutor(InMemorySource({("p", "t"): table}))
        planner, optimizer = Planner(catalog, "p"), Optimizer()
        return lambda sql: executor.execute(
            optimizer.optimize(planner.plan_sql(sql))
        ).rows()

    def test_trailing_nul_is_not_equal_to_its_prefix(self, run_sql):
        assert run_sql("SELECT k FROM t WHERE s = 'a'") == [(2,)]
        assert run_sql("SELECT k FROM t WHERE s <> 'a'") == [(1,), (3,)]
        assert run_sql("SELECT k FROM t WHERE s > 'a' AND s < 'b'") == [(1,)]
        # ... like every other operator already said
        assert run_sql("SELECT k FROM t WHERE s IN ('a')") == [(2,)]
        assert run_sql("SELECT count(DISTINCT s) AS d FROM t") == [(3,)]
        assert len(run_sql("SELECT s, count(*) AS n FROM t GROUP BY s")) == 4
        assert run_sql(
            "SELECT x.k, y.k FROM t x JOIN t y ON x.s = y.s ORDER BY x.k"
        ) == [(1, 1), (2, 2), (3, 3)]

    def test_order_comparisons_go_by_code_point(self):
        words = ["B", "a", "é", "￿", "\U0001F600", "\U0001F600a", ""]
        column = ColumnVector.from_values(VARCHAR, words)
        table = TableData({"t.s": column})
        for op, python_op in OPS.items():
            for word in words:
                expr = BoundComparison.bind(op, S, lit(word))
                expected = [python_op(value, word) for value in words]
                assert expr.evaluate(table).to_values() == expected
