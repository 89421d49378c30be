"""Vectorized physical operators.

One function per logical node type, all operating on whole
:class:`~repro.storage.table.TableData` batches.  Grouping, distinct,
sorting and joining share a code-based representation: every key column is
reduced to integer codes in ``[0, cardinality)`` with NULL as the last
code, and several key columns fold into one int64 by mixed radix.

ORDER BY needs codes that rank (:func:`column_codes`).  Grouping, distinct
and joins only tell values apart, so an integer-like key whose range is
narrower than its row count is its own code (``value - min``) and a
dictionary-coded string keeps its dictionary codes.  When the folded radix
is at most twice the row count, group ids and first rows come from a
scatter into a radix-sized array, with no sort; otherwise from one
``np.unique`` over the folded codes.  MIN / MAX scatter the values
themselves, and COUNT(DISTINCT) over uncoded strings counts one ``set``
per group, so neither ranks its input column.  An equi join sorts the
build side by folded code and finds each probe row's run of matches by
direct lookup in a per-code count array (codes wider than twice both
sides' rows are ranked to that first), so nothing is binary-searched.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.engine.expr import mask_from_predicate
from repro.engine.plan import AggFunc, AggSpec
from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType


# ---------------------------------------------------------------------------
# Key encoding shared by aggregate / distinct / sort / join
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)
_INT64_MIN = int(np.iinfo(np.int64).min)
_INTEGER_LIKE = (DataType.INT, DataType.BIGINT, DataType.DATE, DataType.BOOLEAN)


def column_codes(
    vector: ColumnVector, ordered: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a column as dense integer codes.

    Returns ``(codes, uniques)`` where ``codes[i]`` is the rank of row i's
    value among the column's sorted distinct values, and NULL rows get code
    ``len(uniques)`` (i.e. they sort last and group together, matching SQL
    GROUP BY semantics and NULLS LAST ordering).  A caller that only tells
    values apart (grouping, distinct, join) passes ``ordered=False`` and
    spares strings the sort: their codes then number the distinct values
    in no particular order.  A dictionary-coded column already has them:
    its stored codes are returned (``ordered`` ranks the *dictionary*), and
    ``uniques`` may then hold values no row uses.
    """
    nulls = vector.nulls
    if vector.codes is not None:
        uniques = vector.dictionary
        if ordered:  # rank the dictionary, then the rows through it
            order = np.argsort(uniques, kind="stable")
            uniques, codes = uniques[order], np.argsort(order)[vector.codes]
        else:
            codes = vector.codes.astype(np.int64)
    elif vector.dtype is not DataType.VARCHAR:
        uniques, inverse = np.unique(vector.data, return_inverse=True)
        codes = inverse.astype(np.int64, copy=False)
    else:
        # Other strings factorise by hashing: sorting only the distinct
        # values (by code point, so MIN/MAX and ORDER BY hold) costs far
        # less than sorting a fixed-width copy of the column.  NULL slots
        # may hold any object (``""``, ``None``), so they are selected away
        # before anything is hashed or compared.
        values = (vector.data if nulls is None else vector.data[~nulls]).tolist()
        distinct = set(values)
        uniques = sorted(distinct) if ordered else list(distinct)
        rank = dict(zip(uniques, range(len(uniques))))
        codes = np.fromiter(map(rank.__getitem__, values), np.int64, len(values))
        if nulls is not None:
            valid_codes = codes
            codes = np.full(len(nulls), len(uniques), dtype=np.int64)
            codes[~nulls] = valid_codes
        return codes, np.array(uniques, dtype=object)
    if nulls is not None:
        codes[nulls] = len(uniques)
    return codes, uniques


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def _key_codes(vector: ColumnVector) -> tuple[np.ndarray, int]:
    """Codes that tell one key column's values apart: ``(codes,
    cardinality)`` with codes in ``[0, cardinality)`` and NULL the last.

    An integer-like column whose range is narrower than its row count is
    its own code, shifted to start at 0, so nothing is sorted; any other
    column goes through :func:`column_codes` (a dictionary-coded string
    keeps its dictionary codes there).
    """
    nulls = vector.nulls
    if vector.dtype in _INTEGER_LIKE:
        values = vector.data.astype(np.int64, copy=False)
        valid = True if nulls is None else ~nulls
        low = int(values.min(initial=_INT64_MAX, where=valid))
        high = int(values.max(initial=_INT64_MIN, where=valid))
        if high < low:  # no valid row
            return np.zeros(len(values), dtype=np.int64), 1
        if high - low < len(values):
            codes, width = values - low, high - low + 1
            if nulls is None:
                return codes, width
            codes[nulls] = width
            return codes, width + 1
    codes, uniques = column_codes(vector, ordered=False)
    return codes, len(uniques) + 1


def _combine_codes(parts) -> tuple[np.ndarray, int]:
    """Fold per-column ``(codes, cardinality)`` pairs, codes in
    ``[0, cardinality)``, into one int64 per row such that rows are equal
    iff their code tuples are.  Returns ``(combined, span)``: the folded
    codes lie in ``[0, span)``.

    Mixed-radix, with the radix product tracked in Python integers: before
    a multiply could pass int64 the running code (then, if still needed,
    the incoming one) is re-ranked to at most one value per row, so wide
    or high-cardinality keys never wrap silently.
    """
    parts = iter(parts)
    combined, span = next(parts)
    for codes, cardinality in parts:
        if span * cardinality > _INT64_MAX:
            combined, span = _densify(combined)
        if span * cardinality > _INT64_MAX:
            codes, cardinality = _densify(codes)
        combined = combined * cardinality + codes
        span *= cardinality
    return combined, span


def combined_group_codes(
    table: TableData, key_columns: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Combine multiple key columns into one group id per row.

    Returns ``(group_ids, first_row_index)``: dense group ids in
    [0, num_groups), numbered by first appearance, and, per group, the
    index of its first row in input order (used to materialize key output
    values).  A folded radix of at most twice the row count is addressed
    directly: a scatter finds each code's first row and only those
    ``num_groups`` rows are sorted.  A wider one takes one ``np.unique``.
    """
    num_rows = table.num_rows
    if not key_columns:
        return np.zeros(num_rows, dtype=np.int64), np.zeros(
            min(num_rows, 1), dtype=np.int64
        )
    combined, span = _combine_codes(
        _key_codes(table.column(name)) for name in key_columns
    )
    if span <= 2 * num_rows:
        first = np.full(span, num_rows, dtype=np.int64)
        np.minimum.at(first, combined, np.arange(num_rows))
        first_rows = np.sort(first[first < num_rows])
        remap = np.empty(span, dtype=np.int64)
        remap[combined[first_rows]] = np.arange(len(first_rows))
        return remap[combined], first_rows
    _, first_indices, group_ids = np.unique(
        combined, return_index=True, return_inverse=True
    )
    # Renumber groups by first appearance so output order is deterministic.
    order = np.argsort(first_indices, kind="stable")
    remap = np.empty_like(order)
    remap[order] = np.arange(len(order))
    return remap[group_ids], np.sort(first_indices)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def execute_aggregate(
    table: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """Hash aggregation with SQL NULL semantics.

    NULL inputs are ignored by every aggregate; COUNT(*) counts rows; an
    empty input with no GROUP BY produces the SQL-standard single row
    (count 0, other aggregates NULL).
    """
    num_rows = table.num_rows
    if group_keys:
        group_ids, first_rows = combined_group_codes(table, group_keys)
        num_groups = len(first_rows)
    else:
        group_ids = np.zeros(num_rows, dtype=np.int64)
        num_groups = 1
        first_rows = np.zeros(0, dtype=np.int64)
    columns: dict[str, ColumnVector] = {}
    for key in group_keys:
        columns[key] = table.column(key).take(first_rows)
    for spec in aggregates:
        columns[spec.output] = _compute_aggregate(
            table, spec, group_ids, num_groups
        )
    return TableData(columns)


def _valid_mask(vector: ColumnVector) -> np.ndarray:
    if vector.nulls is None:
        return np.ones(len(vector), dtype=bool)
    return ~vector.nulls


def _compute_aggregate(
    table: TableData, spec: AggSpec, group_ids: np.ndarray, num_groups: int
) -> ColumnVector:
    if spec.func is AggFunc.COUNT and spec.input_column is None:
        counts = np.bincount(group_ids, minlength=num_groups)
        return ColumnVector(DataType.BIGINT, counts.astype(np.int64))
    assert spec.input_column is not None
    vector = table.column(spec.input_column)
    valid = _valid_mask(vector)
    valid_groups = group_ids[valid]
    if spec.func is AggFunc.COUNT:
        if spec.distinct:
            return _count_distinct(vector, valid, valid_groups, num_groups)
        counts = np.bincount(valid_groups, minlength=num_groups)
        return ColumnVector(DataType.BIGINT, counts.astype(np.int64))
    counts = np.bincount(valid_groups, minlength=num_groups)
    empty = counts == 0
    nulls = empty if empty.any() else None
    if spec.func is AggFunc.SUM and spec.dtype is not DataType.DOUBLE:
        sums = _integer_sums(vector.data[valid], valid_groups, num_groups)
        return ColumnVector(spec.dtype, sums, nulls)
    if spec.func in (AggFunc.SUM, AggFunc.AVG):
        values = vector.data[valid].astype(np.float64)
        sums = np.bincount(valid_groups, weights=values, minlength=num_groups)
        if spec.func is AggFunc.AVG:
            with np.errstate(invalid="ignore", divide="ignore"):
                data = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            return ColumnVector(DataType.DOUBLE, data, nulls)
        return ColumnVector(spec.dtype, sums, nulls)
    if spec.func in (AggFunc.MIN, AggFunc.MAX):
        return _min_max(vector, spec, valid, valid_groups, num_groups, nulls)
    raise ExecutionError(f"unsupported aggregate {spec.func}")  # pragma: no cover


def _integer_sums(
    values: np.ndarray, groups: np.ndarray, num_groups: int
) -> np.ndarray:
    """Exact per-group int64 sums; an :class:`ExecutionError` when one
    leaves int64.

    int64 addition wraps, but it is exact modulo 2^64, so the result is
    right whenever the true sum fits.  Only inputs whose magnitude times
    row count reaches 2^63 can overflow; for those, a float64 shadow sum
    (off by far less than 2^63) tells a wrapped sum from a true one.
    """
    sums = np.zeros(num_groups, dtype=np.int64)
    np.add.at(sums, groups, values)
    if not len(values):
        return sums
    if max(-int(values.min()), int(values.max())) * len(values) > _INT64_MAX:
        shadow = np.bincount(
            groups, weights=values.astype(np.float64), minlength=num_groups
        )
        if (np.abs(shadow - sums) >= 2.0**63).any():
            raise ExecutionError("sum() overflows BIGINT")
    return sums


def _count_distinct(
    vector: ColumnVector,
    valid: np.ndarray,
    valid_groups: np.ndarray,
    num_groups: int,
) -> ColumnVector:
    if not valid.any():
        return ColumnVector(
            DataType.BIGINT, np.zeros(num_groups, dtype=np.int64)
        )
    if vector.dtype is DataType.VARCHAR and vector.codes is None:
        counts = _distinct_strings(vector.data[valid], valid_groups, num_groups)
        return ColumnVector(DataType.BIGINT, counts)
    codes, cardinality = _key_codes(vector)
    pairs, _ = _combine_codes(
        [(valid_groups, num_groups), (codes[valid], cardinality)]
    )
    _, first_rows = np.unique(pairs, return_index=True)
    counts = np.bincount(valid_groups[first_rows], minlength=num_groups)
    return ColumnVector(DataType.BIGINT, counts.astype(np.int64))


def _distinct_strings(
    strings: np.ndarray, groups: np.ndarray, num_groups: int
) -> np.ndarray:
    """How many distinct strings each group holds: the rows are partitioned
    by group (a stable sort of 16-bit ids is numpy's radix sort), then each
    group's slice is hashed once into a ``set``.  No string is coded."""
    if num_groups > 1:
        ids = groups.astype(np.uint16) if num_groups <= 1 << 16 else groups
        strings = strings[np.argsort(ids, kind="stable")]
    values = strings.tolist()
    ends = np.cumsum(np.bincount(groups, minlength=num_groups)).tolist()
    counts = [
        len(set(values[start:end])) for start, end in zip([0] + ends, ends)
    ]
    return np.array(counts, dtype=np.int64)


def _min_max(
    vector: ColumnVector,
    spec: AggSpec,
    valid: np.ndarray,
    valid_groups: np.ndarray,
    num_groups: int,
    nulls: np.ndarray | None,
) -> ColumnVector:
    """MIN / MAX per group.  Numbers and dates are scattered as they are;
    a DOUBLE NaN ranks above every number, so MAX propagates it and MIN
    (``fmin``) keeps it only where a group holds nothing else.  Strings
    scatter their ranks."""
    if not valid.any():
        data = np.zeros(num_groups, dtype=spec.dtype.numpy_dtype)
        if spec.dtype is DataType.VARCHAR:
            data = np.array([""] * num_groups, dtype=object)
        return ColumnVector(spec.dtype, data, np.ones(num_groups, dtype=bool))
    if vector.dtype in (DataType.INT, DataType.BIGINT, DataType.DATE, DataType.DOUBLE):
        values = vector.data[valid]
        if vector.dtype is DataType.DOUBLE:
            lowest, highest, minimum = -np.inf, np.nan, np.fmin
        else:
            info = np.iinfo(values.dtype)
            lowest, highest, minimum = info.min, info.max, np.minimum
        with np.errstate(invalid="ignore"):  # NaN operands are expected
            if spec.func is AggFunc.MIN:
                best = np.full(num_groups, highest, dtype=values.dtype)
                minimum.at(best, valid_groups, values)
            else:
                best = np.full(num_groups, lowest, dtype=values.dtype)
                np.maximum.at(best, valid_groups, values)
        return ColumnVector(spec.dtype, best, nulls)
    codes, uniques = column_codes(vector)
    valid_codes = codes[valid]
    if spec.func is AggFunc.MIN:
        best = np.full(num_groups, _INT64_MAX, dtype=np.int64)
        np.minimum.at(best, valid_groups, valid_codes)
    else:
        best = np.full(num_groups, -1, dtype=np.int64)
        np.maximum.at(best, valid_groups, valid_codes)
    data = uniques[np.clip(best, 0, len(uniques) - 1)]
    if spec.dtype is DataType.VARCHAR:
        data = np.asarray(data, dtype=object)
    else:
        data = data.astype(spec.dtype.numpy_dtype)
    return ColumnVector(spec.dtype, data, nulls)


# ---------------------------------------------------------------------------
# Partial -> final aggregation.  No engine path calls these any more; the
# layer benchmark (benchmarks/layers/layers.py) still attributes them by
# name, so they go once it stops naming them.
# ---------------------------------------------------------------------------


def _partial_specs(aggregates: list[AggSpec]) -> list[AggSpec]:
    specs: list[AggSpec] = []
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.input_column,
                    spec.output + "__psum",
                    dtype=DataType.DOUBLE,
                )
            )
            specs.append(
                AggSpec(AggFunc.COUNT, spec.input_column, spec.output + "__pcount")
            )
        elif spec.func is AggFunc.COUNT:
            specs.append(AggSpec(AggFunc.COUNT, spec.input_column, spec.output))
        else:
            specs.append(
                AggSpec(spec.func, spec.input_column, spec.output, dtype=spec.dtype)
            )
    return specs


def partial_aggregate(
    table: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """One morsel's aggregation state as a table (the worker-side phase).

    COUNT becomes per-group counts, SUM/MIN/MAX their per-group partials,
    and AVG splits into an exact (sum, count) pair — everything
    :func:`final_aggregate` can merge without losing bit-identity.
    """
    return execute_aggregate(table, group_keys, _partial_specs(aggregates))


def final_aggregate(
    partials: TableData, group_keys: list[str], aggregates: list[AggSpec]
) -> TableData:
    """Merge concatenated partial states (the coordinator-side phase).

    ``partials`` must be the morsel partial tables concatenated in morsel
    order: group output order is first appearance, which then matches the
    sequential single-pass order exactly.
    """
    merge_specs: list[AggSpec] = []
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            merge_specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.output + "__psum",
                    spec.output + "__psum",
                    dtype=DataType.DOUBLE,
                )
            )
            merge_specs.append(
                AggSpec(
                    AggFunc.SUM,
                    spec.output + "__pcount",
                    spec.output + "__pcount",
                    dtype=DataType.BIGINT,
                )
            )
        elif spec.func in (AggFunc.COUNT, AggFunc.SUM):
            merge_specs.append(
                AggSpec(AggFunc.SUM, spec.output, spec.output, dtype=spec.dtype)
            )
        else:
            merge_specs.append(
                AggSpec(spec.func, spec.output, spec.output, dtype=spec.dtype)
            )
    merged = execute_aggregate(partials, group_keys, merge_specs)
    columns: dict[str, ColumnVector] = {}
    for key in group_keys:
        columns[key] = merged.column(key)
    for spec in aggregates:
        if spec.func is AggFunc.AVG:
            sums = merged.column(spec.output + "__psum").data.astype(np.float64)
            counts = merged.column(spec.output + "__pcount").data.astype(np.int64)
            # The same division as the one-pass kernel, on exact operands.
            with np.errstate(invalid="ignore", divide="ignore"):
                data = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
            empty = counts == 0
            columns[spec.output] = ColumnVector(
                DataType.DOUBLE, data, empty if empty.any() else None
            )
        elif spec.func is AggFunc.COUNT:
            # Groups absent from every partial cannot occur; counts of 0
            # (all-NULL inputs) are valid zeros, never NULL.
            vector = merged.column(spec.output)
            data = vector.data.astype(np.int64)
            if vector.nulls is not None:
                data = np.where(vector.nulls, 0, data)
            columns[spec.output] = ColumnVector(DataType.BIGINT, data)
        else:
            columns[spec.output] = merged.column(spec.output)
    return TableData(columns)


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def _shared_codes(
    left: ColumnVector, right: ColumnVector
) -> tuple[np.ndarray, int, np.ndarray]:
    """Encode one (left, right) key-column pair over a domain both sides
    share.  Returns ``(codes, cardinality, unmatchable)`` for the rows of
    ``left`` followed by those of ``right``: equal values get equal codes
    in ``[0, cardinality)``; ``unmatchable`` marks NULLs and NaNs, which
    equal nothing (their codes are arbitrary but in range).

    The binder admits same-type or numeric x numeric pairs only.  Integer-
    like values (INT, BIGINT, DATE, BOOLEAN) are their own codes, shifted
    to start at 0; a pair involving DOUBLE compares as float64 (which
    concatenation promotes to; ``-0.0`` and ``0.0`` rank as one value);
    strings rank over both sides at once — two dictionary-coded sides by
    unifying their dictionaries, no string built.
    """
    unmatchable = ~np.concatenate([_valid_mask(left), _valid_mask(right)])
    if left.dtype is DataType.VARCHAR:
        shared = ColumnVector.concat_all([left, right])  # its nulls: unmatchable
    elif DataType.DOUBLE in (left.dtype, right.dtype):
        data = np.concatenate([left.data, right.data])
        unmatchable |= np.isnan(data)
        shared = ColumnVector(DataType.DOUBLE, data, unmatchable)
    else:
        values = np.concatenate([left.data, right.data]).astype(np.int64)
        low, high = int(values.min()), int(values.max())
        if high - low >= _INT64_MAX:  # the shift itself would wrap
            return *_densify(values), unmatchable
        return values - low, high - low + 1, unmatchable
    codes, uniques = column_codes(shared, ordered=False)
    return codes, len(uniques) + 1, unmatchable


def _join_codes(
    left: TableData, right: TableData, left_keys: list[str], right_keys: list[str]
) -> tuple[np.ndarray, np.ndarray, int]:
    """One int64 per row of each (non-empty) side such that two rows join
    iff their codes are equal and non-negative: a NULL or NaN in any key
    column makes the row's code -1.  The third item is ``span``: every
    non-negative code is below it."""
    parts = []
    unmatchable = np.zeros(left.num_rows + right.num_rows, dtype=bool)
    for left_key, right_key in zip(left_keys, right_keys):
        codes, cardinality, invalid = _shared_codes(
            left.column(left_key), right.column(right_key)
        )
        parts.append((codes, cardinality))
        unmatchable |= invalid
    codes, span = _combine_codes(parts)
    codes[unmatchable] = -1
    return codes[: left.num_rows], codes[left.num_rows :], span


def execute_hash_join(
    left: TableData,
    right: TableData,
    left_keys: list[str],
    right_keys: list[str],
    is_left_join: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute matching row index pairs for an equi join.

    Returns ``(left_indices, right_indices)`` in ascending left-row order
    and, within one left row, ascending right-row order.  NULL (and NaN)
    keys never match.  With no keys, produces the cross product (used for
    comma joins whose condition lives in WHERE).  The caller applies
    residual predicates and LEFT-join null padding — see
    :func:`join_tables`.
    """
    if not left_keys:
        left_indices = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_indices = np.tile(np.arange(right.num_rows), left.num_rows)
        return left_indices, right_indices
    if left.num_rows == 0 or right.num_rows == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    left_codes, right_codes, span = _join_codes(
        left, right, left_keys, right_keys
    )
    if span > 2 * (left.num_rows + right.num_rows):
        # Too wide to address: rank both sides' valid codes together.
        codes = np.concatenate([left_codes, right_codes])
        valid = codes >= 0
        codes[valid], span = _densify(codes[valid])
        left_codes, right_codes = codes[: left.num_rows], codes[left.num_rows :]
    # Build: right rows sorted by code.  The sort is stable, so rows of one
    # key stay in ascending row order — the output order contract.
    build_rows = np.flatnonzero(right_codes >= 0)
    build_codes = right_codes[build_rows]
    build_rows = build_rows[np.argsort(build_codes, kind="stable")]
    # Probe: each left row matches one contiguous run of the build side,
    # found by its code: the run's length is the code's build count, and
    # its start the counts of every smaller code.  No build row fills the
    # slot past ``span``, so the -1 of a NULL or NaN key reads a count of 0.
    per_code = np.bincount(build_codes, minlength=span + 1)
    code_starts = np.cumsum(per_code) - per_code
    counts = per_code[left_codes]
    probe_rows = np.flatnonzero(counts)
    counts = counts[probe_rows]
    run_starts = code_starts[left_codes[probe_rows]]
    left_indices = np.repeat(probe_rows, counts)
    output_starts = np.cumsum(counts) - counts
    positions = np.arange(len(left_indices)) + np.repeat(
        run_starts - output_starts, counts
    )
    return left_indices, build_rows[positions]


def join_tables(
    left: TableData,
    right: TableData,
    left_indices: np.ndarray,
    right_indices: np.ndarray,
    is_left_join: bool,
    residual=None,
) -> TableData:
    """Materialize join output from index pairs, applying the residual
    predicate and, for LEFT joins, null-padding unmatched left rows."""
    left_part = left.take(left_indices)
    right_part = right.take(right_indices)
    combined = TableData({**left_part.columns, **right_part.columns})
    if residual is not None and combined.num_rows:
        mask = mask_from_predicate(residual.evaluate(combined))
        combined = combined.filter(mask)
        left_indices = left_indices[mask]
    if not is_left_join:
        return combined
    matched = np.zeros(left.num_rows, dtype=bool)
    matched[left_indices] = True
    unmatched = np.flatnonzero(~matched)
    if len(unmatched) == 0:
        return combined
    left_missing = left.take(unmatched)
    null_right = TableData(
        {
            name: _all_null_vector(vector.dtype, len(unmatched))
            for name, vector in right.columns.items()
        }
    )
    padding = TableData({**left_missing.columns, **null_right.columns})
    return combined.concat(padding)


def _all_null_vector(dtype: DataType, count: int) -> ColumnVector:
    if dtype is DataType.VARCHAR:
        data = np.array([""] * count, dtype=object)
    else:
        data = np.zeros(count, dtype=dtype.numpy_dtype)
    return ColumnVector(dtype, data, np.ones(count, dtype=bool))


def execute_semi_anti_join(
    left: TableData,
    right: TableData,
    left_keys: list[str],
    right_keys: list[str],
    anti: bool,
) -> TableData:
    """Semi join (IN subquery) / anti join (NOT IN subquery).

    SQL NULL semantics are honoured:

    * a NULL left key never matches — excluded from both semi and anti
      results (``x IN S`` / ``x NOT IN S`` are UNKNOWN for NULL x, except
      over an empty S);
    * an empty subquery result makes NOT IN pass every row (even NULL x,
      since ``x NOT IN ()`` is TRUE);
    * a NULL among the subquery's values makes NOT IN pass no rows at all
      (each comparison is at best UNKNOWN).
    """
    if left.num_rows == 0:
        return left
    if right.num_rows == 0:
        # x NOT IN (empty) is TRUE for every x; x IN (empty) for none.
        return left if anti else left.slice(0, 0)
    if anti and any(right.column(name).has_nulls() for name in right_keys):
        return left.slice(0, 0)  # any NULL in S poisons NOT IN entirely
    left_codes, right_codes, _ = _join_codes(left, right, left_keys, right_keys)
    matches = np.isin(left_codes, right_codes[right_codes >= 0])
    if not anti:
        return left.filter(matches)
    left_valid = np.logical_and.reduce(
        [_valid_mask(left.column(name)) for name in left_keys]
    )
    return left.filter(left_valid & ~matches)


def execute_union_all(
    tables: list[TableData], schema: list[tuple[str, DataType]]
) -> TableData:
    """Concatenate branch outputs positionally under the first branch's
    column names (numeric branches are promoted to the output type)."""
    from repro.engine.expr import BoundCast, BoundColumn

    aligned: list[TableData] = []
    for table in tables:
        columns: dict[str, ColumnVector] = {}
        for (out_name, out_type), in_name in zip(schema, table.column_names):
            vector = table.column(in_name)
            if vector.dtype is not out_type:
                vector = BoundCast(
                    BoundColumn(in_name, vector.dtype), out_type
                ).evaluate(table)
            columns[out_name] = vector
        aligned.append(TableData(columns))
    return TableData.concat_all(aligned)


# ---------------------------------------------------------------------------
# Sort / distinct / limit
# ---------------------------------------------------------------------------


def _sort_codes(vector: ColumnVector, ascending: bool) -> np.ndarray:
    """Integer sort keys for one column: dense rank codes with NULLs last.

    Staying in int64 end to end matters: the previous implementation cast
    codes to float64, which collapses ranks above 2^53 — a silent mis-sort
    once a column has that many distinct values.  Codes are ranks of the
    column's sorted uniques, so they order *every* dtype exactly (floats
    included); descending negates the codes and NULLs are pinned to the
    int64 maximum so they sort last in both directions.
    """
    codes, _ = column_codes(vector)
    keys = -codes if not ascending else codes.copy()
    if vector.nulls is not None:
        keys[vector.nulls] = _INT64_MAX
    return keys


def execute_sort(
    table: TableData, keys: list[tuple[str, bool]]
) -> TableData:
    """Stable multi-key sort; NULLs last for both directions."""
    if table.num_rows == 0:
        return table
    key_arrays = [
        _sort_codes(table.column(name), ascending) for name, ascending in keys
    ]
    # np.lexsort is stable and treats its *last* key as primary.
    indices = np.lexsort(tuple(reversed(key_arrays)))
    return table.take(indices)


def execute_top_n(
    table: TableData,
    keys: list[tuple[str, bool]],
    limit: int | None,
    offset: int = 0,
) -> TableData:
    """``ORDER BY … LIMIT k`` without fully sorting the input.

    Partial selection via ``np.argpartition`` on the primary sort key keeps
    every row that can possibly rank in the top ``limit + offset`` (ties at
    the boundary included), then only those candidates are sorted.  The
    candidates are gathered in input order and the final sort is stable, so
    the result is bit-identical to ``execute_limit(execute_sort(...))``.
    """
    num_rows = table.num_rows
    n = (limit or 0) + offset
    if limit is None or num_rows == 0 or n >= num_rows:
        return execute_limit(execute_sort(table, keys), limit, offset)
    if n == 0:
        return table.slice(0, 0)
    primary = _sort_codes(table.column(keys[0][0]), keys[0][1])
    boundary = primary[np.argpartition(primary, n - 1)[n - 1]]
    candidates = np.flatnonzero(primary <= boundary)  # ascending input order
    key_arrays = [
        _sort_codes(table.column(name), ascending)[candidates]
        for name, ascending in keys
    ]
    order = np.lexsort(tuple(reversed(key_arrays)))
    return table.take(candidates[order[offset:n]])


def execute_distinct(table: TableData) -> TableData:
    """Drop duplicate rows, keeping first occurrences in input order."""
    if table.num_rows == 0 or not table.columns:
        return table
    _, first_rows = combined_group_codes(table, table.column_names)
    return table.take(first_rows)


def execute_limit(table: TableData, limit: int | None, offset: int) -> TableData:
    start = min(offset, table.num_rows)
    stop = table.num_rows if limit is None else min(start + limit, table.num_rows)
    return table.slice(start, stop)
