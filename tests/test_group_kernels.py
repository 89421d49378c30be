"""Differential tests for the grouping kernels.

The oracles are the kernels the direct-addressed ones replaced, kept here
verbatim: ``combined_group_codes`` over one ``np.unique`` of the folded
codes, ``_count_distinct`` over sorted (group, value) pairs, and
``_min_max`` over the value column's ranks.  Group ids and first rows must
agree exactly (output order is first appearance, which result digests
depend on); COUNT(DISTINCT), MIN and MAX must agree by value.  The inputs
are seeded and cover every key class on both sides of each threshold the
new kernels branch on.  A last class pins integer SUM through the SQL path.
"""

import numpy as np
import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.physical import column_codes, combined_group_codes, execute_aggregate
from repro.engine.plan import AggFunc, AggSpec
from repro.engine.planner import Planner
from repro.engine.source import InMemorySource
from repro.errors import ExecutionError
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType

# -- oracles: the replaced kernels ---------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _valid_mask(vector):
    if vector.nulls is None:
        return np.ones(len(vector), dtype=bool)
    return ~vector.nulls


def _densify(codes):
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def _combine_codes(parts):
    parts = iter(parts)
    combined, span = next(parts)
    for codes, cardinality in parts:
        if span * cardinality > _INT64_MAX:
            combined, span = _densify(combined)
        if span * cardinality > _INT64_MAX:
            codes, cardinality = _densify(codes)
        combined = combined * cardinality + codes
        span *= cardinality
    return combined


def sorted_group_codes(table, key_columns):
    """The replaced ``combined_group_codes``."""
    num_rows = table.num_rows
    if not key_columns:
        return np.zeros(num_rows, dtype=np.int64), np.zeros(
            min(num_rows, 1), dtype=np.int64
        )
    encoded = (
        column_codes(table.column(name), ordered=False) for name in key_columns
    )
    combined = _combine_codes(
        (codes, len(uniques) + 1) for codes, uniques in encoded
    )
    _, first_indices, group_ids = np.unique(
        combined, return_index=True, return_inverse=True
    )
    # Renumber groups by first appearance so output order is deterministic.
    order = np.argsort(first_indices, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(len(order))
    return remap[group_ids], np.sort(first_indices)


def sorted_pairs_count_distinct(vector, valid, valid_groups, num_groups):
    """The replaced ``_count_distinct``."""
    if len(vector) == 0 or not valid.any():
        return ColumnVector(
            DataType.BIGINT, np.zeros(num_groups, dtype=np.int64)
        )
    codes, uniques = column_codes(vector, ordered=False)
    pairs = _combine_codes(
        [(valid_groups, num_groups), (codes[valid], len(uniques) + 1)]
    )
    _, first_rows = np.unique(pairs, return_index=True)
    counts = np.bincount(valid_groups[first_rows], minlength=num_groups)
    return ColumnVector(DataType.BIGINT, counts.astype(np.int64))


def ranked_min_max(vector, spec, valid, valid_groups, num_groups, nulls):
    """The replaced ``_min_max``."""
    codes, uniques = column_codes(vector)
    valid_codes = codes[valid]
    if spec.func is AggFunc.MIN:
        best = np.full(num_groups, _INT64_MAX, dtype=np.int64)
        np.minimum.at(best, valid_groups, valid_codes)
    else:
        best = np.full(num_groups, -1, dtype=np.int64)
        np.maximum.at(best, valid_groups, valid_codes)
    safe = np.clip(best, 0, max(len(uniques) - 1, 0))
    if len(uniques) == 0:
        data = np.zeros(num_groups, dtype=spec.dtype.numpy_dtype)
        if spec.dtype is DataType.VARCHAR:
            data = np.array([""] * num_groups, dtype=object)
        return ColumnVector(
            spec.dtype, data, np.ones(num_groups, dtype=bool)
        )
    data = uniques[safe]
    if spec.dtype is DataType.VARCHAR:
        data = np.asarray(data, dtype=object)
    else:
        data = data.astype(spec.dtype.numpy_dtype)
    return ColumnVector(spec.dtype, data, nulls)


def oracle_aggregate(table, group_keys, aggregates):
    """``execute_aggregate`` as it was, for COUNT(DISTINCT), MIN and MAX."""
    if group_keys:
        group_ids, first_rows = sorted_group_codes(table, group_keys)
        num_groups = len(first_rows)
    else:
        group_ids, num_groups = np.zeros(table.num_rows, dtype=np.int64), 1
    columns = {}
    for spec in aggregates:
        vector = table.column(spec.input_column)
        valid = _valid_mask(vector)
        valid_groups = group_ids[valid]
        if spec.distinct:
            columns[spec.output] = sorted_pairs_count_distinct(
                vector, valid, valid_groups, num_groups
            )
            continue
        counts = np.bincount(valid_groups, minlength=num_groups)
        empty = counts == 0
        columns[spec.output] = ranked_min_max(
            vector, spec, valid, valid_groups, num_groups, empty if empty.any() else None
        )
    return columns


# -- seeded columns of every key class -----------------------------------------

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
STRINGS = ["", "\x00", "a", "a\x00", "é", "日本", "\U0001F600", "None", "z"]
DOUBLES = [-0.0, 0.0, 1.5, -2.0, float("nan"), float("inf"), float("-inf")]

#: kind -> (dtype, a function drawing ``n`` values).
KINDS = {
    "int_narrow": (DataType.INT, lambda rng, n: rng.integers(-5, 5, n)),
    "int_wide": (DataType.INT, lambda rng, n: rng.integers(-(2**31), 2**31, n)),
    "bigint_narrow": (DataType.BIGINT, lambda rng, n: 10**15 + rng.integers(0, 7, n)),
    "bigint_extremes": (
        DataType.BIGINT,
        lambda rng, n: rng.choice(np.array([INT64_MIN, INT64_MAX, -1, 0, 1]), n),
    ),
    "date": (DataType.DATE, lambda rng, n: 9000 + rng.integers(0, 30, n)),
    "boolean": (DataType.BOOLEAN, lambda rng, n: rng.integers(0, 2, n).astype(bool)),
    "double": (DataType.DOUBLE, lambda rng, n: rng.choice(np.array(DOUBLES), n)),
    "varchar_plain": (
        DataType.VARCHAR,
        lambda rng, n: np.array([STRINGS[i] for i in rng.integers(0, len(STRINGS), n)],
                                dtype=object),
    ),
    "varchar_coded": (DataType.VARCHAR, None),
}
ORDERED_KINDS = [kind for kind in KINDS if kind != "boolean"]


def make_vector(kind, rng, num_rows, null_share=0.2):
    """``num_rows`` values of ``kind``, about ``null_share`` of them NULL.
    A NULL slot holds garbage (an int64 extreme, ``None``, an unused code):
    the kernels must never look at it."""
    dtype, draw = KINDS[kind]
    nulls = rng.random(num_rows) < null_share
    if kind == "varchar_coded":
        # A shuffled dictionary with an entry no row uses.
        entries = STRINGS + ["unused"]
        dictionary = np.array([entries[i] for i in rng.permutation(len(entries))], dtype=object)
        codes = rng.integers(0, len(STRINGS), num_rows).astype(np.int32)
        return ColumnVector.from_codes(codes, dictionary, nulls if nulls.any() else None)
    data = np.asarray(draw(rng, num_rows)).astype(dtype.numpy_dtype)
    if dtype is DataType.VARCHAR:
        data[nulls] = None
    elif dtype is not DataType.BOOLEAN and num_rows:
        data[nulls] = np.iinfo(data.dtype).max if data.dtype.kind == "i" else np.nan
    return ColumnVector(dtype, data, nulls if nulls.any() else None)


def values(vector):
    """A vector's values with NULL as None and NaN as a token; ``-0.0`` and
    ``0.0`` compare equal."""
    return ["NaN" if value != value else value for value in vector.to_values()]


def random_table(seed, num_rows, key_kinds, value_kinds):
    rng = np.random.default_rng(seed)
    columns = {f"k{i}": make_vector(kind, rng, num_rows) for i, kind in enumerate(key_kinds)}
    for i, kind in enumerate(value_kinds):
        columns[f"v{i}"] = make_vector(kind, rng, num_rows, null_share=rng.choice([0, 0.3, 1]))
    return TableData(columns)


def assert_grouping_matches(table, keys):
    group_ids, first_rows = combined_group_codes(table, keys)
    expected_ids, expected_first = sorted_group_codes(table, keys)
    assert np.array_equal(group_ids, expected_ids)
    assert np.array_equal(first_rows, expected_first)


def assert_aggregates_match(table, keys, value_kinds):
    specs = []
    for i, kind in enumerate(value_kinds):
        dtype = KINDS[kind][0]
        specs.append(AggSpec(AggFunc.COUNT, f"v{i}", f"cd{i}", distinct=True))
        if kind in ORDERED_KINDS:
            specs.append(AggSpec(AggFunc.MIN, f"v{i}", f"min{i}", dtype=dtype))
            specs.append(AggSpec(AggFunc.MAX, f"v{i}", f"max{i}", dtype=dtype))
    got = execute_aggregate(table, keys, specs)
    expected = oracle_aggregate(table, keys, specs)
    for spec in specs:
        assert values(got.column(spec.output)) == values(expected[spec.output]), spec


SIZES = [0, 1, 2, 9, 64, 500]


class TestGroupIdsMatchTheSortedPath:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_keys(self, seed):
        rng = np.random.default_rng(seed)
        key_kinds = rng.choice(list(KINDS), rng.integers(1, 4)).tolist()
        table = random_table(seed, int(rng.choice(SIZES)), key_kinds, [])
        assert_grouping_matches(table, table.column_names)

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("num_rows", SIZES)
    def test_each_key_class_alone(self, kind, num_rows):
        table = random_table(num_rows, num_rows, [kind], [])
        assert_grouping_matches(table, ["k0"])

    @pytest.mark.parametrize("num_rows", [7, 8, 50, 51])
    def test_both_sides_of_the_thresholds(self, num_rows):
        """An INT key of range ``num_rows`` (a code per value is one too
        many, so it is ranked) and one of ``num_rows - 1`` (its own code);
        two keys whose radix product lands on each side of twice the row
        count (addressed directly, or through ``np.unique``)."""
        rows = np.arange(num_rows)
        wide = rows.copy()
        wide[-1] = num_rows  # range num_rows over num_rows rows
        side = 2 * num_rows // 7 + 1
        table = TableData(
            {
                "wide": ColumnVector(DataType.INT, wide.astype(np.int32)),
                "narrow": ColumnVector(DataType.INT, rows[::-1].astype(np.int32)),
                "a": ColumnVector(DataType.BIGINT, rows % 7),
                "b": ColumnVector(DataType.BIGINT, rows % side),
                "c": ColumnVector(DataType.BIGINT, rows % (side + 1)),
            }
        )
        for keys in (["wide"], ["narrow"], ["a", "b"], ["a", "c"], ["b", "c"]):
            assert_grouping_matches(table, keys)

    def test_int64_extremes_and_a_radix_product_past_int64(self):
        """Six wide BIGINT keys of ~2 000 values each multiply past 2^63, so
        the fold re-ranks on the way; the extremes defeat ``value - min``."""
        rng = np.random.default_rng(5)
        num_rows = 2000
        columns = {
            f"k{i}": ColumnVector(DataType.BIGINT, rng.integers(INT64_MIN, INT64_MAX, num_rows))
            for i in range(6)
        }
        columns["k0"].data[:4] = [INT64_MIN, INT64_MAX, INT64_MIN, INT64_MAX]
        columns["k1"].data[:4] = [0, 0, 0, 0]  # rows 0 and 2 equal in k0..k1
        table = TableData(columns)
        assert_grouping_matches(table, table.column_names)
        assert_grouping_matches(table, ["k0", "k1"])

    def test_empty_input(self):
        table = random_table(1, 0, ["int_narrow", "varchar_coded"], [])
        group_ids, first_rows = combined_group_codes(table, table.column_names)
        assert len(group_ids) == 0 and len(first_rows) == 0


class TestAggregatesMatchTheRankedPath:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_keys_and_values(self, seed):
        rng = np.random.default_rng(1000 + seed)
        key_kinds = rng.choice(list(KINDS), rng.integers(0, 3)).tolist()
        value_kinds = list(KINDS)
        table = random_table(seed, int(rng.choice(SIZES)), key_kinds, value_kinds)
        keys = [name for name in table.column_names if name.startswith("k")]
        assert_aggregates_match(table, keys, value_kinds)

    def test_double_min_max_with_nan_and_signed_zero(self):
        nan, inf = float("nan"), float("inf")
        groups = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4]
        data = [nan, 1.0, -inf, nan, nan, -0.0, 0.0, inf, 2.0, nan, 3.0]
        table = TableData(
            {
                "k0": ColumnVector(DataType.INT, np.array(groups, dtype=np.int32)),
                "v0": ColumnVector(
                    DataType.DOUBLE,
                    np.array(data),
                    np.array([False] * 10 + [True]),  # group 4: all NULL
                ),
            }
        )
        assert_aggregates_match(table, ["k0"], ["double"])
        spec = [AggSpec(AggFunc.MIN, "v0", "lo", dtype=DataType.DOUBLE),
                AggSpec(AggFunc.MAX, "v0", "hi", dtype=DataType.DOUBLE)]
        result = execute_aggregate(table, ["k0"], spec)
        assert values(result.column("lo")) == [-inf, "NaN", 0.0, 2.0, None]
        assert values(result.column("hi")) == ["NaN", "NaN", inf, "NaN", None]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_all_null_values_and_empty_input(self, kind):
        for num_rows, null_share in ((0, 0.0), (12, 1.0)):
            rng = np.random.default_rng(num_rows)
            table = TableData(
                {
                    "k0": make_vector("int_narrow", rng, num_rows),
                    "v0": make_vector(kind, rng, num_rows, null_share),
                }
            )
            for keys in ([], ["k0"]):
                assert_aggregates_match(table, keys, [kind])

    def test_more_groups_than_a_sixteen_bit_id_holds(self):
        """COUNT(DISTINCT) over plain strings partitions rows by group id; past
        65 536 groups the ids no longer fit the 16-bit copy it sorts."""
        rng = np.random.default_rng(3)
        num_rows = 140_000
        keys = rng.permutation(np.arange(num_rows) // 2)  # 70 000 groups of two
        strings = np.array([f"ip-{v}" for v in rng.integers(0, 5, num_rows)], dtype=object)
        table = TableData(
            {
                "k0": ColumnVector(DataType.BIGINT, keys),
                "v0": ColumnVector(DataType.VARCHAR, strings),
            }
        )
        assert_aggregates_match(table, ["k0"], ["varchar_plain"])


# -- integer SUM through the SQL path --------------------------------------------


@pytest.fixture(scope="module")
def sum_of():
    catalog = Catalog()
    catalog.create_schema("s")
    schema = [("g", DataType.INT), ("x", DataType.BIGINT)]
    catalog.create_table("s", "t", [ColumnMeta(name, dtype) for name, dtype in schema])
    planner, optimizer = Planner(catalog, "s"), Optimizer()

    def run(rows):
        source = InMemorySource({("s", "t"): TableData.from_rows(schema, rows)})
        plan = optimizer.optimize(
            planner.plan_sql("SELECT g, sum(x) AS total FROM t GROUP BY g")
        )
        return QueryExecutor(source).execute(plan).rows()

    return run


class TestIntegerSum:
    def test_sums_past_two_to_the_53_are_exact(self, sum_of):
        """float64 accumulation returned 2^53 and 2^62 here."""
        rows = [(1, 2**53), (1, 1), (2, 2**62 + 1), (3, None)]
        assert sum_of(rows) == [(1, 2**53 + 1), (2, 2**62 + 1), (3, None)]

    def test_a_sum_that_fits_is_exact_even_if_a_partial_sum_wraps(self, sum_of):
        rows = [(1, INT64_MAX), (1, 1), (1, -1), (2, INT64_MIN), (2, -1), (2, 1)]
        assert sum_of(rows) == [(1, INT64_MAX), (2, INT64_MIN)]

    @pytest.mark.parametrize(
        "values", [[2**62, 2**62], [INT64_MAX, 1], [INT64_MIN, -1], [-(2**62)] * 3]
    )
    def test_a_sum_past_bigint_fails_the_query(self, sum_of, values):
        with pytest.raises(ExecutionError, match="overflow"):
            sum_of([(1, 5)] + [(2, value) for value in values])
