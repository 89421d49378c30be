"""Bound, typed, vectorized expressions.

The binder turns AST expressions into ``BoundExpr`` trees whose
:meth:`~BoundExpr.evaluate` runs over a :class:`~repro.storage.table.TableData`
batch and returns a :class:`~repro.storage.types.ColumnVector`.  SQL
three-valued logic is carried by the vector null masks: comparisons
propagate NULL, AND/OR follow Kleene logic, and WHERE treats NULL as false
(the filter operator drops NULL rows).
"""

from __future__ import annotations

import dataclasses
import functools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import BindError, ExecutionError
from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType

ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}
COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
LOGICAL_OPS = {"and", "or"}


class BoundExpr:
    """Base class: a typed expression evaluable over a table batch."""

    dtype: DataType

    def evaluate(self, table: TableData) -> ColumnVector:
        raise NotImplementedError

    def references(self) -> set[str]:
        """Names of input columns this expression reads."""
        return set()

    def to_sql(self) -> str:
        raise NotImplementedError


#: Broadcast vectors are interned per (dtype, value, batch length): constant
#: expressions in tight per-batch loops reuse one shared vector instead of
#: rebuilding ``np.full`` / ``[""] * n`` buffers every batch.  Entries are
#: read-only by convention — every consumer that writes (CASE, coalesce)
#: copies first.
_BROADCAST_CACHE: OrderedDict[tuple, ColumnVector] = OrderedDict()
_BROADCAST_CACHE_ENTRIES = 256
_BROADCAST_LOCK = threading.Lock()


def clear_broadcast_cache() -> None:
    with _BROADCAST_LOCK:
        _BROADCAST_CACHE.clear()


def _broadcast_scalar(dtype: DataType, value: object, num_rows: int) -> ColumnVector:
    try:
        key = (dtype, value, num_rows)
        hash(key)
    except TypeError:
        key = None
    if key is not None:
        with _BROADCAST_LOCK:
            cached = _BROADCAST_CACHE.get(key)
            if cached is not None:
                _BROADCAST_CACHE.move_to_end(key)
                return cached
    nulls = np.ones(num_rows, dtype=bool) if value is None else None
    if dtype is DataType.VARCHAR:
        # A one-entry dictionary: how `_compare` knows a constant operand.
        vector = ColumnVector.from_codes(
            np.zeros(num_rows, dtype=np.int32),
            np.array(["" if value is None else value], dtype=object),
            nulls,
        )
    elif value is None:
        vector = ColumnVector(dtype, np.zeros(num_rows, dtype=dtype.numpy_dtype), nulls)
    else:
        vector = ColumnVector(dtype, np.full(num_rows, value, dtype=dtype.numpy_dtype))
    if key is not None:
        with _BROADCAST_LOCK:
            _BROADCAST_CACHE[key] = vector
            while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_ENTRIES:
                _BROADCAST_CACHE.popitem(last=False)
    return vector


@dataclass
class BoundLiteral(BoundExpr):
    """A constant broadcast to the batch length."""

    value: object
    dtype: DataType

    def evaluate(self, table: TableData) -> ColumnVector:
        return _broadcast_scalar(self.dtype, self.value, table.num_rows)

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass
class BoundColumn(BoundExpr):
    """A reference to a column of the input batch by qualified name."""

    name: str
    dtype: DataType

    def evaluate(self, table: TableData) -> ColumnVector:
        return table.column(self.name)

    def references(self) -> set[str]:
        return {self.name}

    def to_sql(self) -> str:
        return self.name


def _combine_nulls(*vectors: ColumnVector) -> np.ndarray | None:
    masks = [vector.nulls for vector in vectors if vector.nulls is not None]
    if not masks:
        return None
    result = masks[0].copy()
    for mask in masks[1:]:
        result |= mask
    return result


def _per_value(vector: ColumnVector, fn: Callable[[np.ndarray], np.ndarray]):
    """``fn`` — a total function of string values alone, object array in,
    array out — over a VARCHAR column: once per *distinct* value of a coded
    column (when that is fewer calls) and gathered by code, else over every
    row.  Every per-value predicate and string function comes through here,
    so the rule is written once."""
    if vector.codes is not None and len(vector.dictionary) <= len(vector.codes):
        return fn(vector.dictionary)[vector.codes]
    return fn(vector.data)


def _each(fn: Callable[[str], object], dtype: object = object):
    """Lift a per-string function to the arrays :func:`_per_value` passes."""
    return lambda values: np.array(
        [fn(str(value)) for value in values.tolist()], dtype=dtype
    )


_COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _compare(ufunc: np.ufunc, left: ColumnVector, right: ColumnVector) -> ColumnVector:
    """One comparison over evaluated operands, NULLs propagated.  Strings
    compare as Python strings, by code point (numpy's fixed-width unicode
    drops trailing NULs); against a constant — a coded operand with a
    one-entry dictionary — they compare once per distinct value."""
    if right.codes is not None and len(right.dictionary) == 1:
        data = _per_value(left, lambda values: ufunc(values, right.dictionary))
    elif left.codes is not None and len(left.dictionary) == 1:
        data = _per_value(right, lambda values: ufunc(left.dictionary, values))
    else:
        data = ufunc(left.data, right.data)
    return ColumnVector(
        DataType.BOOLEAN, np.asarray(data, dtype=bool), _combine_nulls(left, right)
    )


def _promote(left: DataType, right: DataType) -> DataType:
    """Numeric promotion: INT < BIGINT < DOUBLE."""
    order = [DataType.INT, DataType.BIGINT, DataType.DOUBLE]
    if left in order and right in order:
        return order[max(order.index(left), order.index(right))]
    raise BindError(f"cannot promote {left.value} with {right.value}")


@dataclass
class BoundArithmetic(BoundExpr):
    """``+ - * / %`` with numeric promotion; DATE ± INT stays DATE."""

    op: str
    left: BoundExpr
    right: BoundExpr
    dtype: DataType

    @staticmethod
    def bind(op: str, left: BoundExpr, right: BoundExpr) -> "BoundArithmetic":
        if op not in ARITHMETIC_OPS:
            raise BindError(f"unknown arithmetic operator {op!r}")
        date_types = (left.dtype is DataType.DATE, right.dtype is DataType.DATE)
        if any(date_types):
            if op not in ("+", "-"):
                raise BindError(f"operator {op!r} not defined for DATE")
            other = right.dtype if date_types[0] else left.dtype
            if other in (DataType.INT, DataType.BIGINT):
                return BoundArithmetic(op, left, right, DataType.DATE)
            if all(date_types) and op == "-":
                return BoundArithmetic(op, left, right, DataType.INT)
            raise BindError("DATE arithmetic requires an integer day count")
        if op == "/":
            result_type = DataType.DOUBLE
        else:
            result_type = _promote(left.dtype, right.dtype)
        return BoundArithmetic(op, left, right, result_type)

    def evaluate(self, table: TableData) -> ColumnVector:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        nulls = _combine_nulls(left, right)
        lhs = left.data
        rhs = right.data
        if self.op == "/":
            lhs = lhs.astype(np.float64)
            rhs = rhs.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                data = lhs / rhs
            zero_division = rhs == 0
            if zero_division.any():
                nulls = (
                    zero_division
                    if nulls is None
                    else (nulls | zero_division)
                )
                data = np.where(zero_division, 0.0, data)
        elif self.op == "%":
            rhs_safe = np.where(rhs == 0, 1, rhs)
            data = lhs % rhs_safe
            zero_division = rhs == 0
            if zero_division.any():
                nulls = (
                    zero_division if nulls is None else (nulls | zero_division)
                )
        elif self.op == "+":
            data = lhs + rhs
        elif self.op == "-":
            data = lhs - rhs
        else:
            data = lhs * rhs
        return ColumnVector(self.dtype, data.astype(self.dtype.numpy_dtype), nulls)

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass
class BoundComparison(BoundExpr):
    """``= <> < <= > >=`` returning BOOLEAN with NULL propagation."""

    op: str
    left: BoundExpr
    right: BoundExpr
    dtype: DataType = DataType.BOOLEAN

    @staticmethod
    def bind(op: str, left: BoundExpr, right: BoundExpr) -> "BoundComparison":
        if op not in COMPARISON_OPS:
            raise BindError(f"unknown comparison operator {op!r}")
        comparable = (
            left.dtype is right.dtype
            or (left.dtype.is_numeric and right.dtype.is_numeric)
        )
        if not comparable:
            raise BindError(
                f"cannot compare {left.dtype.value} with {right.dtype.value}"
            )
        if left.dtype is DataType.BOOLEAN and op not in ("=", "<>"):
            raise BindError("BOOLEAN supports only = and <>")
        return BoundComparison(op, left, right)

    def evaluate(self, table: TableData) -> ColumnVector:
        return _compare(
            _COMPARISONS[self.op], self.left.evaluate(table), self.right.evaluate(table)
        )

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass
class BoundLogical(BoundExpr):
    """Kleene AND/OR over BOOLEAN operands."""

    op: str
    left: BoundExpr
    right: BoundExpr
    dtype: DataType = DataType.BOOLEAN

    @staticmethod
    def bind(op: str, left: BoundExpr, right: BoundExpr) -> "BoundLogical":
        if op not in LOGICAL_OPS:
            raise BindError(f"unknown logical operator {op!r}")
        if left.dtype is not DataType.BOOLEAN or right.dtype is not DataType.BOOLEAN:
            raise BindError(f"{op.upper()} requires BOOLEAN operands")
        return BoundLogical(op, left, right)

    def evaluate(self, table: TableData) -> ColumnVector:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        if left.nulls is None and right.nulls is None:
            # Two-valued: one mask op, no Kleene bookkeeping.
            data = (left.data & right.data) if self.op == "and" else (left.data | right.data)
            return ColumnVector(DataType.BOOLEAN, data)
        num_rows = len(left)
        left_null = (
            left.nulls if left.nulls is not None else np.zeros(num_rows, dtype=bool)
        )
        right_null = (
            right.nulls if right.nulls is not None else np.zeros(num_rows, dtype=bool)
        )
        left_value = left.data & ~left_null
        right_value = right.data & ~right_null
        if self.op == "and":
            # FALSE dominates; NULL when undetermined.
            definite_false = (~left.data & ~left_null) | (~right.data & ~right_null)
            data = left_value & right_value
            nulls = (left_null | right_null) & ~definite_false
        else:
            definite_true = left_value | right_value
            data = definite_true
            nulls = (left_null | right_null) & ~definite_true
        return ColumnVector(
            DataType.BOOLEAN, data, nulls if nulls.any() else None
        )

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.upper()} {self.right.to_sql()})"


@dataclass
class BoundNot(BoundExpr):
    operand: BoundExpr
    dtype: DataType = DataType.BOOLEAN

    @staticmethod
    def bind(operand: BoundExpr) -> "BoundNot":
        if operand.dtype is not DataType.BOOLEAN:
            raise BindError("NOT requires a BOOLEAN operand")
        return BoundNot(operand)

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        return ColumnVector(DataType.BOOLEAN, ~value.data, value.nulls)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


@dataclass
class BoundNegate(BoundExpr):
    """Arithmetic negation."""

    operand: BoundExpr
    dtype: DataType

    @staticmethod
    def bind(operand: BoundExpr) -> "BoundNegate":
        if not operand.dtype.is_numeric:
            raise BindError("unary minus requires a numeric operand")
        return BoundNegate(operand, operand.dtype)

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        return ColumnVector(self.dtype, -value.data, value.nulls)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


@dataclass
class BoundIsNull(BoundExpr):
    operand: BoundExpr
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        nulls = (
            value.nulls
            if value.nulls is not None
            else np.zeros(len(value), dtype=bool)
        )
        data = ~nulls if self.negated else nulls.copy()
        return ColumnVector(DataType.BOOLEAN, data)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        return f"({self.operand.to_sql()} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass
class BoundInList(BoundExpr):
    """Vectorized ``expr IN (literals...)`` via numpy membership."""

    operand: BoundExpr
    values: tuple[object, ...]
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    @functools.cached_property
    def _candidates(self) -> "set[str] | np.ndarray":
        if self.operand.dtype is DataType.VARCHAR:
            return {str(item) for item in self.values}
        return np.array(list(self.values))

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        if value.dtype is DataType.VARCHAR:
            data = _per_value(value, _each(self._candidates.__contains__, bool))
        else:
            data = np.isin(value.data, self._candidates)
        if self.negated:
            data = ~data
        return ColumnVector(DataType.BOOLEAN, data, value.nulls)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        inner = ", ".join(repr(item) for item in self.values)
        return f"({self.operand.to_sql()} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass
class BoundLike(BoundExpr):
    """SQL LIKE compiled to a regex; ``%`` → ``.*`` and ``_`` → ``.``."""

    operand: BoundExpr
    pattern: str
    negated: bool = False
    dtype: DataType = DataType.BOOLEAN

    def __post_init__(self) -> None:
        self._regex = re.compile(like_to_regex(self.pattern), re.DOTALL)

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        match = self._regex.match
        data = _per_value(value, _each(lambda item: match(item) is not None, bool))
        if self.negated:
            data = ~data
        return ColumnVector(DataType.BOOLEAN, data, value.nulls)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        return (
            f"({self.operand.to_sql()} {'NOT ' if self.negated else ''}"
            f"LIKE '{self.pattern}')"
        )


def like_to_regex(pattern: str) -> str:
    """Translate a LIKE pattern into an anchored regex."""
    parts = ["^"]
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    parts.append("$")
    return "".join(parts)


@dataclass
class BoundCase(BoundExpr):
    """Searched CASE evaluated with cascading numpy selects."""

    whens: tuple[tuple[BoundExpr, BoundExpr], ...]
    else_: BoundExpr | None
    dtype: DataType

    def evaluate(self, table: TableData) -> ColumnVector:
        num_rows = table.num_rows
        if self.else_ is not None:
            result = self.else_.evaluate(table)
            data = result.data.copy()
            nulls = (
                result.nulls.copy()
                if result.nulls is not None
                else np.zeros(num_rows, dtype=bool)
            )
        else:
            data = _broadcast_scalar(self.dtype, None, num_rows).data.copy()
            nulls = np.ones(num_rows, dtype=bool)
        decided = np.zeros(num_rows, dtype=bool)
        for condition, branch in self.whens:
            cond = condition.evaluate(table)
            cond_true = cond.data & (
                ~cond.nulls if cond.nulls is not None else True
            )
            take = np.asarray(cond_true, dtype=bool) & ~decided
            if take.any():
                branch_value = branch.evaluate(table)
                data[take] = branch_value.data[take]
                branch_nulls = (
                    branch_value.nulls
                    if branch_value.nulls is not None
                    else np.zeros(num_rows, dtype=bool)
                )
                nulls[take] = branch_nulls[take]
            decided |= np.asarray(cond_true, dtype=bool)
        return ColumnVector(self.dtype, data, nulls if nulls.any() else None)

    def references(self) -> set[str]:
        result: set[str] = set()
        for condition, branch in self.whens:
            result |= condition.references() | branch.references()
        if self.else_ is not None:
            result |= self.else_.references()
        return result

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, branch in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {branch.to_sql()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class BoundCast(BoundExpr):
    operand: BoundExpr
    dtype: DataType

    def evaluate(self, table: TableData) -> ColumnVector:
        value = self.operand.evaluate(table)
        if value.dtype is self.dtype:
            return value
        if self.dtype is DataType.VARCHAR:
            data = np.array([str(item) for item in value.data], dtype=object)
        elif value.dtype is DataType.VARCHAR:
            try:
                data = value.data.astype(self.dtype.numpy_dtype)
            except ValueError as exc:
                raise ExecutionError(f"CAST failed: {exc}") from exc
        else:
            data = value.data.astype(self.dtype.numpy_dtype)
        return ColumnVector(self.dtype, data, value.nulls)

    def references(self) -> set[str]:
        return self.operand.references()

    def to_sql(self) -> str:
        return f"CAST({self.operand.to_sql()} AS {self.dtype.value})"


@dataclass
class BoundScalarFunction(BoundExpr):
    """Non-aggregate built-in function."""

    name: str
    args: tuple[BoundExpr, ...]
    dtype: DataType

    SUPPORTED = {
        "upper": (1, DataType.VARCHAR),
        "lower": (1, DataType.VARCHAR),
        "length": (1, DataType.INT),
        "abs": (1, None),  # same type as argument
        "round": (2, DataType.DOUBLE),
        "year": (1, DataType.INT),
        "month": (1, DataType.INT),
        "coalesce": (-1, None),
        "substring": (3, DataType.VARCHAR),
    }

    @staticmethod
    def bind(name: str, args: tuple[BoundExpr, ...]) -> "BoundScalarFunction":
        if name not in BoundScalarFunction.SUPPORTED:
            raise BindError(f"unknown function {name!r}")
        arity, result_type = BoundScalarFunction.SUPPORTED[name]
        if arity >= 0 and len(args) != arity:
            raise BindError(f"{name}() takes {arity} arguments, got {len(args)}")
        if arity < 0 and not args:
            raise BindError(f"{name}() needs at least one argument")
        if result_type is None:
            result_type = args[0].dtype
        if name in ("year", "month") and args[0].dtype is not DataType.DATE:
            raise BindError(f"{name}() requires a DATE argument")
        if name in ("upper", "lower", "length", "substring"):
            if args[0].dtype is not DataType.VARCHAR:
                raise BindError(f"{name}() requires a VARCHAR argument")
        return BoundScalarFunction(name, args, result_type)

    def evaluate(self, table: TableData) -> ColumnVector:
        values = [arg.evaluate(table) for arg in self.args]
        first = values[0]
        if self.name in ("upper", "lower"):
            data = _per_value(first, _each(getattr(str, self.name)))
            return ColumnVector(self.dtype, data, first.nulls)
        if self.name == "length":
            data = _per_value(first, _each(len, np.int32))
            return ColumnVector(self.dtype, data, first.nulls)
        if self.name == "abs":
            return ColumnVector(self.dtype, np.abs(first.data), first.nulls)
        if self.name == "round":
            digits = int(values[1].data[0]) if len(values[1]) else 0
            data = np.round(first.data.astype(np.float64), digits)
            return ColumnVector(self.dtype, data, first.nulls)
        if self.name in ("year", "month"):
            # DATE is days since epoch; convert via numpy datetime64.
            dates = first.data.astype("datetime64[D]")
            if self.name == "year":
                data = dates.astype("datetime64[Y]").astype(np.int32) + 1970
            else:
                months = dates.astype("datetime64[M]").astype(np.int32)
                data = (months % 12 + 1).astype(np.int32)
            return ColumnVector(self.dtype, data, first.nulls)
        if self.name == "coalesce":
            data = first.data.copy()
            nulls = (
                first.nulls.copy()
                if first.nulls is not None
                else np.zeros(len(first), dtype=bool)
            )
            for value in values[1:]:
                fill = nulls & ~(
                    value.nulls
                    if value.nulls is not None
                    else np.zeros(len(value), dtype=bool)
                )
                data[fill] = value.data[fill]
                nulls[fill] = False
            return ColumnVector(self.dtype, data, nulls if nulls.any() else None)
        if self.name == "substring":
            start = int(values[1].data[0]) if len(values[1]) else 1
            length = int(values[2].data[0]) if len(values[2]) else 0
            begin = max(start - 1, 0)
            data = _per_value(first, _each(lambda v: v[begin : begin + length]))
            return ColumnVector(self.dtype, data, first.nulls)
        raise ExecutionError(f"unhandled function {self.name!r}")

    def references(self) -> set[str]:
        result: set[str] = set()
        for arg in self.args:
            result |= arg.references()
        return result

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name.upper()}({inner})"


@dataclass
class BoundConcat(BoundExpr):
    """String concatenation (``||``)."""

    left: BoundExpr
    right: BoundExpr
    dtype: DataType = DataType.VARCHAR

    @staticmethod
    def bind(left: BoundExpr, right: BoundExpr) -> "BoundConcat":
        if left.dtype is not DataType.VARCHAR or right.dtype is not DataType.VARCHAR:
            raise BindError("|| requires VARCHAR operands")
        return BoundConcat(left, right)

    def evaluate(self, table: TableData) -> ColumnVector:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        data = np.array(
            [str(a) + str(b) for a, b in zip(left.data, right.data)], dtype=object
        )
        return ColumnVector(DataType.VARCHAR, data, _combine_nulls(left, right))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} || {self.right.to_sql()})"


def mask_from_predicate(vector: ColumnVector) -> np.ndarray:
    """WHERE semantics: TRUE rows pass, FALSE and NULL rows are dropped."""
    if vector.dtype is not DataType.BOOLEAN:
        raise ExecutionError("predicate did not evaluate to BOOLEAN")
    mask = np.asarray(vector.data, dtype=bool)
    if vector.nulls is not None:
        mask = mask & ~vector.nulls
    return mask


# ---------------------------------------------------------------------------
# Constant folding and the per-batch callable
# ---------------------------------------------------------------------------

_FOLD_PROBE: TableData | None = None


def _fold_probe() -> TableData:
    """A one-row dummy batch used to evaluate reference-free subtrees."""
    global _FOLD_PROBE
    if _FOLD_PROBE is None:
        _FOLD_PROBE = TableData(
            {"__fold__": ColumnVector(DataType.BIGINT, np.zeros(1, dtype=np.int64))}
        )
    return _FOLD_PROBE


def fold_constants(expr: BoundExpr) -> BoundExpr:
    """Collapse reference-free subtrees into :class:`BoundLiteral` nodes.

    The subtree is evaluated once against a one-row probe batch; the
    resulting scalar (or NULL) replaces it.  Subtrees whose evaluation
    raises are left alone so runtime errors keep their runtime timing.
    Folding is semantics-preserving per batch: a constant subtree produces
    the same broadcast vector the original would have, just without
    recomputing it.
    """
    folded = _fold_children(expr)
    if isinstance(folded, (BoundLiteral, BoundColumn)) or folded.references():
        return folded
    try:
        probe = folded.evaluate(_fold_probe())
    except Exception:
        return folded
    if probe.nulls is not None and bool(probe.nulls[0]):
        return BoundLiteral(None, folded.dtype)
    raw = probe.data[0]
    value = raw.item() if hasattr(raw, "item") else raw
    if folded.dtype is DataType.VARCHAR:
        value = str(value)
    return BoundLiteral(value, folded.dtype)


def _fold_children(expr: BoundExpr) -> BoundExpr:
    if isinstance(expr, (BoundArithmetic, BoundComparison, BoundLogical, BoundConcat)):
        return dataclasses.replace(
            expr, left=fold_constants(expr.left), right=fold_constants(expr.right)
        )
    if isinstance(
        expr, (BoundNot, BoundNegate, BoundIsNull, BoundInList, BoundLike, BoundCast)
    ):
        return dataclasses.replace(expr, operand=fold_constants(expr.operand))
    if isinstance(expr, BoundCase):
        whens = tuple(
            (fold_constants(condition), fold_constants(branch))
            for condition, branch in expr.whens
        )
        else_ = fold_constants(expr.else_) if expr.else_ is not None else None
        return dataclasses.replace(expr, whens=whens, else_=else_)
    if isinstance(expr, BoundScalarFunction):
        return dataclasses.replace(
            expr, args=tuple(fold_constants(arg) for arg in expr.args)
        )
    return expr


def compile_expr(expr: BoundExpr) -> Callable[[TableData], ColumnVector]:
    """The per-batch callable of a Filter, a Project or a scan residual:
    ``expr.evaluate`` itself.

    Nothing is compiled and nothing is folded here — the planner folds
    constants once per statement (:func:`fold_constants`).  The function
    exists because operators reach the evaluator through this one name,
    which the wall-clock benchmark wraps to attribute expression time.
    """
    return expr.evaluate
