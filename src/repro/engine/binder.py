"""Name and type resolution: AST expressions → bound expressions.

The binder resolves column references against the FROM-clause scope,
type-checks operators, coerces date literals, and — for aggregate queries —
splits expressions into the *scan space* (below the Aggregate operator) and
the *post-aggregate space* (above it), collecting the aggregate functions
and group keys the planner will materialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BindError
from repro.engine import expr as bound
from repro.engine.plan import AggFunc, AggSpec
from repro.engine.sql import ast
from repro.storage.catalog import Catalog, TableMeta
from repro.storage.types import DataType, date_to_days

AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


@dataclass
class ScopeEntry:
    """One table visible in the FROM clause."""

    binding: str
    schema_name: str
    table: TableMeta

    def qualified(self, column: str) -> str:
        return f"{self.binding}.{column}"


@dataclass
class Scope:
    """The set of tables a query's expressions may reference."""

    entries: list[ScopeEntry] = field(default_factory=list)

    def add(self, entry: ScopeEntry) -> None:
        if any(e.binding == entry.binding for e in self.entries):
            raise BindError(f"duplicate table binding {entry.binding!r}")
        self.entries.append(entry)

    def resolve(self, name: str, table: str | None) -> tuple[str, DataType]:
        """Resolve a column reference to (qualified name, dtype)."""
        if table is not None:
            for entry in self.entries:
                if entry.binding == table:
                    if not entry.table.has_column(name):
                        raise BindError(
                            f"no column {name!r} in {table!r}"
                        )
                    return entry.qualified(name), entry.table.column(name).dtype
            raise BindError(f"unknown table alias {table!r}")
        matches = [
            entry for entry in self.entries if entry.table.has_column(name)
        ]
        if not matches:
            raise BindError(f"unknown column {name!r}")
        if len(matches) > 1:
            candidates = ", ".join(entry.binding for entry in matches)
            raise BindError(f"ambiguous column {name!r} (in {candidates})")
        entry = matches[0]
        return entry.qualified(name), entry.table.column(name).dtype

    def all_columns(self, table: str | None = None) -> list[tuple[str, DataType]]:
        """Every visible column (for ``*`` expansion), FROM-clause order."""
        result = []
        for entry in self.entries:
            if table is not None and entry.binding != table:
                continue
            for column in entry.table.columns:
                result.append((entry.qualified(column.name), column.dtype))
        if table is not None and not result:
            raise BindError(f"unknown table alias {table!r}")
        return result


@dataclass
class AggCollector:
    """Accumulates group keys and aggregate calls during post-space binding.

    The planner materializes ``key_exprs`` and ``arg_exprs`` in a projection
    under the Aggregate operator and ``specs`` inside it.
    """

    group_asts: list[ast.Expr]
    key_exprs: list[tuple[str, bound.BoundExpr]]
    arg_exprs: list[tuple[str, bound.BoundExpr]] = field(default_factory=list)
    specs: list[AggSpec] = field(default_factory=list)
    _seen: dict[tuple, str] = field(default_factory=dict)

    def key_for(self, node: ast.Expr) -> tuple[str, DataType] | None:
        """If ``node`` structurally equals a GROUP BY expression, return the
        materialized key column."""
        for index, group_ast in enumerate(self.group_asts):
            if node == group_ast:
                name, key_expr = self.key_exprs[index]
                return name, key_expr.dtype
        return None

    def add_aggregate(
        self, func: AggFunc, arg: bound.BoundExpr | None, distinct: bool
    ) -> tuple[str, DataType]:
        """Register an aggregate call (deduplicated) and return its output."""
        signature = (
            func,
            arg.to_sql() if arg is not None else None,
            distinct,
        )
        if signature in self._seen:
            output = self._seen[signature]
            spec = next(s for s in self.specs if s.output == output)
            return output, spec.dtype
        input_column = None
        if arg is not None:
            input_column = f"aggarg_{len(self.arg_exprs)}"
            self.arg_exprs.append((input_column, arg))
        output = f"agg_{len(self.specs)}"
        dtype = _aggregate_dtype(func, arg)
        self.specs.append(AggSpec(func, input_column, output, distinct, dtype))
        self._seen[signature] = output
        return output, dtype


def _aggregate_dtype(func: AggFunc, arg: bound.BoundExpr | None) -> DataType:
    if func is AggFunc.COUNT:
        return DataType.BIGINT
    if arg is None:
        raise BindError(f"{func.value}() requires an argument")
    if func is AggFunc.AVG:
        if not arg.dtype.is_numeric:
            raise BindError("avg() requires a numeric argument")
        return DataType.DOUBLE
    if func is AggFunc.SUM:
        if not arg.dtype.is_numeric:
            raise BindError("sum() requires a numeric argument")
        return (
            DataType.DOUBLE if arg.dtype is DataType.DOUBLE else DataType.BIGINT
        )
    # MIN / MAX keep the argument type.
    if not arg.dtype.is_orderable:
        raise BindError(f"{func.value}() requires an orderable argument")
    return arg.dtype


class Binder:
    """Binds expressions against a scope (and optionally an AggCollector)."""

    def __init__(self, catalog: Catalog, default_schema: str) -> None:
        self._catalog = catalog
        self._default_schema = default_schema

    # -- scope construction ----------------------------------------------------

    def build_scope(self, from_clause: ast.TableRef | ast.Join | None) -> Scope:
        scope = Scope()
        if from_clause is not None:
            self._collect_tables(from_clause, scope)
        return scope

    def _collect_tables(self, node: ast.TableRef | ast.Join, scope: Scope) -> None:
        if isinstance(node, ast.TableRef):
            table = self._catalog.table(self._default_schema, node.name)
            scope.add(ScopeEntry(node.binding_name, self._default_schema, table))
            return
        self._collect_tables(node.left, scope)
        self._collect_tables(node.right, scope)

    # -- expression binding ------------------------------------------------------

    def bind_scalar(self, node: ast.Expr, scope: Scope) -> bound.BoundExpr:
        """Bind in scan space; aggregate functions are an error here."""
        return self._bind(node, scope, collector=None)

    def bind_post(
        self, node: ast.Expr, scope: Scope, collector: AggCollector
    ) -> bound.BoundExpr:
        """Bind in post-aggregate space.

        Subtrees matching GROUP BY expressions become key-column references;
        aggregate calls are collected; any other bare column is an error
        (it is neither grouped nor aggregated).
        """
        return self._bind(node, scope, collector=collector)

    def _bind(
        self,
        node: ast.Expr,
        scope: Scope,
        collector: AggCollector | None,
    ) -> bound.BoundExpr:
        if collector is not None:
            key = collector.key_for(node)
            if key is not None:
                name, dtype = key
                return bound.BoundColumn(name, dtype)
        if isinstance(node, ast.Literal):
            return self.literal(node)
        if isinstance(node, ast.ColumnRef):
            name, dtype = scope.resolve(node.name, node.table)
            if collector is not None:
                # Qualified and bare spellings of the same column must both
                # match a GROUP BY key, so compare resolved names.
                for index, (key_name, key_expr) in enumerate(
                    collector.key_exprs
                ):
                    if (
                        isinstance(key_expr, bound.BoundColumn)
                        and key_expr.name == name
                    ):
                        return bound.BoundColumn(key_name, key_expr.dtype)
                raise BindError(
                    f"column {node.to_sql()!r} must appear in GROUP BY "
                    "or inside an aggregate function"
                )
            return bound.BoundColumn(name, dtype)
        if isinstance(node, ast.Star):
            raise BindError("'*' is only valid in SELECT lists and COUNT(*)")
        if isinstance(node, ast.Unary):
            if node.op == "not":
                return bound.BoundNot.bind(self._bind(node.operand, scope, collector))
            return self.negate(self._bind(node.operand, scope, collector))
        if isinstance(node, ast.Binary):
            return self._bind_binary(node, scope, collector)
        if isinstance(node, ast.Between):
            return self._bind_between(node, scope, collector)
        if isinstance(node, ast.InList):
            return self._bind_in(node, scope, collector)
        if isinstance(node, ast.Like):
            return self._bind_like(node, scope, collector)
        if isinstance(node, ast.IsNull):
            operand = self._bind(node.expr, scope, collector)
            return bound.BoundIsNull(operand, node.negated)
        if isinstance(node, ast.Case):
            return self._bind_case(node, scope, collector)
        if isinstance(node, ast.Cast):
            operand = self._bind(node.expr, scope, collector)
            try:
                target = DataType.from_string(node.type_name)
            except ValueError as exc:
                raise BindError(str(exc)) from exc
            return bound.BoundCast(operand, target)
        if isinstance(node, ast.FunctionCall):
            return self._bind_function(node, scope, collector)
        raise BindError(f"unsupported expression {node!r}")

    # -- literals ----------------------------------------------------------------
    #
    # A number or string literal reaches a bound plan through these four
    # static methods, so a prepared plan's literals are re-bound through
    # them (:func:`repro.engine.prepare.bind`) without planning again.

    @staticmethod
    def literal(node: ast.Literal) -> bound.BoundLiteral:
        """A literal, its type from its value: ``DATE '…'`` becomes a day
        count (a bad date raises :class:`BindError`), an integer is INT
        unless it needs 64 bits."""
        value = node.value
        if value is None:
            return bound.BoundLiteral(None, DataType.INT)
        if isinstance(value, bool):
            return bound.BoundLiteral(value, DataType.BOOLEAN)
        if node.is_date:
            try:
                return bound.BoundLiteral(date_to_days(str(value)), DataType.DATE)
            except ValueError as exc:
                raise BindError(f"bad DATE literal {value!r}") from exc
        if isinstance(value, int):
            dtype = DataType.BIGINT if abs(value) > 2**31 - 1 else DataType.INT
            return bound.BoundLiteral(value, dtype)
        if isinstance(value, float):
            return bound.BoundLiteral(value, DataType.DOUBLE)
        return bound.BoundLiteral(str(value), DataType.VARCHAR)

    @staticmethod
    def negate(operand: bound.BoundExpr) -> bound.BoundExpr:
        """Unary minus; over a numeric literal it folds to a literal."""
        if isinstance(operand, bound.BoundLiteral) and operand.dtype.is_numeric:
            return bound.BoundLiteral(-operand.value, operand.dtype)  # type: ignore[operator]
        return bound.BoundNegate.bind(operand)

    @staticmethod
    def in_list(
        operand: bound.BoundExpr,
        items: list[bound.BoundLiteral],
        negated: bool,
    ) -> bound.BoundInList:
        """``operand [NOT] IN (items)`` over already-checked literals."""
        return bound.BoundInList(
            operand, tuple(item.value for item in items), negated
        )

    @staticmethod
    def like(
        operand: bound.BoundExpr, pattern: bound.BoundLiteral, negated: bool
    ) -> bound.BoundLike:
        """``operand [NOT] LIKE pattern`` over a string literal."""
        return bound.BoundLike(operand, pattern.value, negated)

    @staticmethod
    def _coerce_date(left: bound.BoundExpr, right: bound.BoundExpr):
        """Let a VARCHAR literal act as a DATE when compared against one."""

        def try_convert(target: bound.BoundExpr, other: bound.BoundExpr):
            if (
                other.dtype is DataType.DATE
                and isinstance(target, bound.BoundLiteral)
                and target.dtype is DataType.VARCHAR
            ):
                try:
                    return bound.BoundLiteral(
                        date_to_days(str(target.value)), DataType.DATE
                    )
                except ValueError:
                    return target
            return target

        return try_convert(left, right), try_convert(right, left)

    def _bind_binary(
        self, node: ast.Binary, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        left = self._bind(node.left, scope, collector)
        right = self._bind(node.right, scope, collector)
        op = node.op.lower()
        if op in ("and", "or"):
            return bound.BoundLogical.bind(op, left, right)
        if op == "||":
            return bound.BoundConcat.bind(left, right)
        left, right = self._coerce_date(left, right)
        if op in bound.COMPARISON_OPS:
            return bound.BoundComparison.bind(op, left, right)
        if op in bound.ARITHMETIC_OPS:
            return bound.BoundArithmetic.bind(op, left, right)
        raise BindError(f"unsupported operator {node.op!r}")

    def _bind_between(
        self, node: ast.Between, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        value = self._bind(node.expr, scope, collector)
        low = self._bind(node.low, scope, collector)
        high = self._bind(node.high, scope, collector)
        low, _ = self._coerce_date(low, value)
        high, _ = self._coerce_date(high, value)
        lower = bound.BoundComparison.bind(">=", value, low)
        upper = bound.BoundComparison.bind("<=", value, high)
        between = bound.BoundLogical.bind("and", lower, upper)
        return bound.BoundNot(between) if node.negated else between

    def _bind_in(
        self, node: ast.InList, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        operand = self._bind(node.expr, scope, collector)
        items = []
        for item in node.items:
            literal = self._bind(item, scope, collector)
            literal, _ = self._coerce_date(literal, operand)
            if not isinstance(literal, bound.BoundLiteral):
                raise BindError("IN list items must be literals")
            comparable = (
                literal.dtype is operand.dtype
                or (literal.dtype.is_numeric and operand.dtype.is_numeric)
            )
            if not comparable:
                raise BindError(
                    f"IN list item type {literal.dtype.value} does not match "
                    f"{operand.dtype.value}"
                )
            items.append(literal)
        return self.in_list(operand, items, node.negated)

    def _bind_like(
        self, node: ast.Like, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        operand = self._bind(node.expr, scope, collector)
        if operand.dtype is not DataType.VARCHAR:
            raise BindError("LIKE requires a VARCHAR operand")
        pattern = self._bind(node.pattern, scope, collector)
        if not isinstance(pattern, bound.BoundLiteral) or not isinstance(
            pattern.value, str
        ):
            raise BindError("LIKE pattern must be a string literal")
        return self.like(operand, pattern, node.negated)

    def _bind_case(
        self, node: ast.Case, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        whens = []
        result_type: DataType | None = None
        for condition_ast, branch_ast in node.whens:
            condition = self._bind(condition_ast, scope, collector)
            if condition.dtype is not DataType.BOOLEAN:
                raise BindError("CASE WHEN condition must be BOOLEAN")
            branch = self._bind(branch_ast, scope, collector)
            result_type = self._merge_case_type(result_type, branch)
            whens.append((condition, branch))
        else_bound = None
        if node.else_ is not None:
            else_bound = self._bind(node.else_, scope, collector)
            result_type = self._merge_case_type(result_type, else_bound)
        assert result_type is not None
        return bound.BoundCase(tuple(whens), else_bound, result_type)

    @staticmethod
    def _merge_case_type(
        current: DataType | None, branch: bound.BoundExpr
    ) -> DataType:
        if isinstance(branch, bound.BoundLiteral) and branch.value is None:
            return current or branch.dtype
        if current is None:
            return branch.dtype
        if current is branch.dtype:
            return current
        order = [DataType.INT, DataType.BIGINT, DataType.DOUBLE]
        if current in order and branch.dtype in order:
            return order[max(order.index(current), order.index(branch.dtype))]
        raise BindError(
            f"CASE branches have incompatible types "
            f"{current.value} and {branch.dtype.value}"
        )

    def _bind_function(
        self, node: ast.FunctionCall, scope: Scope, collector: AggCollector | None
    ) -> bound.BoundExpr:
        name = node.name.lower()
        if name in AGGREGATE_FUNCTIONS:
            if collector is None:
                raise BindError(
                    f"aggregate function {name}() is not allowed here"
                )
            return self._bind_aggregate(node, scope, collector)
        if node.distinct:
            raise BindError("DISTINCT is only valid inside aggregate functions")
        args = tuple(self._bind(arg, scope, None) for arg in node.args)
        return bound.BoundScalarFunction.bind(name, args)

    def _bind_aggregate(
        self, node: ast.FunctionCall, scope: Scope, collector: AggCollector
    ) -> bound.BoundExpr:
        name = node.name.lower()
        func = AggFunc(name)
        if func is AggFunc.COUNT and (
            len(node.args) == 0
            or (len(node.args) == 1 and isinstance(node.args[0], ast.Star))
        ):
            if node.distinct:
                raise BindError("COUNT(DISTINCT *) is not supported")
            output, dtype = collector.add_aggregate(func, None, False)
            return bound.BoundColumn(output, dtype)
        if len(node.args) != 1:
            raise BindError(f"{name}() takes exactly one argument")
        if node.distinct and func is not AggFunc.COUNT:
            raise BindError(f"DISTINCT is only supported for COUNT, not {name}()")
        # Aggregate arguments live in scan space: no nested aggregates.
        arg = self._bind(node.args[0], scope, None)
        output, dtype = collector.add_aggregate(func, arg, node.distinct)
        return bound.BoundColumn(output, dtype)

    # -- join condition splitting ---------------------------------------------

    def split_join_condition(
        self,
        condition: ast.Expr,
        left_bindings: set[str],
        scope: Scope,
    ) -> tuple[list[tuple[str, str]], bound.BoundExpr | None]:
        """Split an ON condition into equi-key pairs and a residual.

        Returns ``(pairs, residual)`` where pairs are (left qualified column,
        right qualified column) equality keys and residual is everything
        else (bound over the joined scope), or None.
        """
        conjuncts = split_conjuncts(condition)
        pairs: list[tuple[str, str]] = []
        residual_parts: list[bound.BoundExpr] = []
        for conjunct in conjuncts:
            pair = self._try_equi_pair(conjunct, left_bindings, scope)
            if pair is not None:
                pairs.append(pair)
            else:
                if isinstance(conjunct, ast.Literal) and conjunct.value is True:
                    continue
                residual_parts.append(self.bind_scalar(conjunct, scope))
        residual: bound.BoundExpr | None = None
        for part in residual_parts:
            residual = (
                part if residual is None else bound.BoundLogical.bind(
                    "and", residual, part
                )
            )
        return pairs, residual

    def _try_equi_pair(
        self, conjunct: ast.Expr, left_bindings: set[str], scope: Scope
    ) -> tuple[str, str] | None:
        if not (
            isinstance(conjunct, ast.Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            return None
        left_name, left_type = scope.resolve(conjunct.left.name, conjunct.left.table)
        right_name, right_type = scope.resolve(
            conjunct.right.name, conjunct.right.table
        )
        comparable = left_type is right_type or (
            left_type.is_numeric and right_type.is_numeric
        )
        if not comparable:
            raise BindError(
                f"join keys {left_name} and {right_name} are not comparable"
            )
        left_binding = left_name.split(".", 1)[0]
        right_binding = right_name.split(".", 1)[0]
        if left_binding in left_bindings and right_binding not in left_bindings:
            return left_name, right_name
        if right_binding in left_bindings and left_binding not in left_bindings:
            return right_name, left_name
        return None


def split_conjuncts(node: ast.Expr) -> list[ast.Expr]:
    """Flatten a tree of ANDs into its conjuncts."""
    if isinstance(node, ast.Binary) and node.op.lower() == "and":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node]
