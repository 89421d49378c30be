"""Abstract syntax tree for the supported SQL subset.

Pure data: no behaviour beyond ``__repr__``-style rendering back to SQL
(used in error messages and by the NL2SQL round-trip tests).  All nodes are
frozen dataclasses so plans can hash/cache them safely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Expr:
    """Base class for expression nodes."""

    def to_sql(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool, or None (SQL NULL).

    ``position`` is the source position of the token a number or string
    literal was read from (None for keywords such as NULL, and for
    literals not read from a token); it takes no part in equality."""

    value: object
    is_date: bool = False
    position: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            prefix = "DATE " if self.is_date else ""
            return f"{prefix}'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` (only valid in SELECT lists and COUNT)."""

    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operator: ``-expr`` or ``NOT expr``."""

    op: str
    operand: Expr

    def to_sql(self) -> str:
        if self.op.lower() == "not":
            return f"NOT ({self.operand.to_sql()})"
        return f"{self.op}({self.operand.to_sql()})"


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.upper()} {self.right.to_sql()})"


@dataclass(frozen=True)
class Between(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return (
            f"({self.expr.to_sql()} {maybe_not}BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class InList(Expr):
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        inner = ", ".join(item.to_sql() for item in self.items)
        return f"({self.expr.to_sql()} {maybe_not}IN ({inner}))"


@dataclass(frozen=True)
class Like(Expr):
    expr: Expr
    pattern: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {maybe_not}LIKE {self.pattern.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expr):
    expr: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} IS {maybe_not}NULL)"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A function call; aggregate-ness is decided by the binder."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        maybe_distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name.upper()}({maybe_distinct}{inner})"


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    whens: tuple[tuple[Expr, Expr], ...]
    else_: Expr | None = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql()} THEN {result.to_sql()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.to_sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Cast(Expr):
    expr: Expr
    type_name: str

    def to_sql(self) -> str:
        return f"CAST({self.expr.to_sql()} AS {self.type_name.upper()})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"


@dataclass(frozen=True)
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class Join:
    """A join tree node (left-deep per the parser)."""

    left: "TableRef | Join"
    right: TableRef
    kind: JoinKind
    condition: Expr

    def to_sql(self) -> str:
        kind = "JOIN" if self.kind is JoinKind.INNER else "LEFT JOIN"
        return (
            f"{self.left.to_sql()} {kind} {self.right.to_sql()} "
            f"ON {self.condition.to_sql()}"
        )


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class SelectStatement:
    """The root AST node for a SELECT query."""

    items: tuple[SelectItem, ...]
    from_clause: TableRef | Join | None = None
    where: Expr | None = None
    group_by: tuple[Expr, ...] = field(default=())
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = field(default=())
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.items))
        if self.from_clause is not None:
            parts.append("FROM " + self.from_clause.to_sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass(frozen=True)
class UnionAll:
    """Concatenation of SELECT branches (bag semantics, no dedup).

    ``order_by``/``limit``/``offset`` apply to the whole union — the
    parser hoists a trailing ORDER BY/LIMIT off the final branch, per
    standard SQL.
    """

    branches: tuple["SelectStatement", ...]
    order_by: tuple["OrderItem", ...] = field(default=())
    limit: int | None = None
    offset: int | None = None

    def to_sql(self) -> str:
        text = " UNION ALL ".join(branch.to_sql() for branch in self.branches)
        if self.order_by:
            text += " ORDER BY " + ", ".join(o.to_sql() for o in self.order_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        if self.offset is not None:
            text += f" OFFSET {self.offset}"
        return text


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (col type, ...)`` — registers catalog metadata."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, type name)

    def to_sql(self) -> str:
        inner = ", ".join(f"{c} {t}" for c, t in self.columns)
        return f"CREATE TABLE {self.name} ({inner})"


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE name`` — removes the table and its files."""

    name: str

    def to_sql(self) -> str:
        return f"DROP TABLE {self.name}"


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN [ANALYZE] <select>`` — render the plan; with ANALYZE,
    execute it and annotate each operator with actual rows/bytes/time."""

    statement: "SelectStatement | UnionAll"
    analyze: bool = False

    def to_sql(self) -> str:
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.statement.to_sql()}"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` — planned as a semi/anti join."""

    expr: Expr
    query: "SelectStatement"
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {maybe_not}IN ({self.query.to_sql()}))"


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    children: tuple[Expr, ...]
    if isinstance(expr, Unary):
        children = (expr.operand,)
    elif isinstance(expr, Binary):
        children = (expr.left, expr.right)
    elif isinstance(expr, Between):
        children = (expr.expr, expr.low, expr.high)
    elif isinstance(expr, InList):
        children = (expr.expr, *expr.items)
    elif isinstance(expr, Like):
        children = (expr.expr, expr.pattern)
    elif isinstance(expr, IsNull):
        children = (expr.expr,)
    elif isinstance(expr, FunctionCall):
        children = expr.args
    elif isinstance(expr, Case):
        children = tuple(
            node for when in expr.whens for node in when
        ) + ((expr.else_,) if expr.else_ is not None else ())
    elif isinstance(expr, Cast):
        children = (expr.expr,)
    else:
        children = ()
    for child in children:
        yield from walk_expr(child)
