"""Logical planning: bound SELECT statements → plan trees.

The planner owns query *structure*: join-tree assembly, aggregate
placement, hidden sort-key projection, DISTINCT/LIMIT ordering.  Expression
binding is delegated to :class:`~repro.engine.binder.Binder`; algebraic
rewrites (push-downs, join ordering) happen later in the optimizer.
"""

from __future__ import annotations

from repro.errors import BindError, PlanError
from repro.engine import expr as bound
from repro.engine.binder import AggCollector, Binder, Scope, split_conjuncts
from repro.engine.plan import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    JoinType,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    SortKey,
    UnionAllPlan,
)
from repro.engine.sql import ast
from repro.engine.sql.parser import parse_sql
from repro.storage.catalog import Catalog

AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


class Planner:
    """Builds logical plans for SQL text or parsed statements."""

    def __init__(
        self, catalog: Catalog, default_schema: str, binder: Binder | None = None
    ) -> None:
        self._catalog = catalog
        self._default_schema = default_schema
        self._binder = binder or Binder(catalog, default_schema)

    def plan_sql(self, sql: str) -> PlanNode:
        return self.plan(parse_sql(sql))

    def plan(self, statement: "ast.SelectStatement | ast.UnionAll") -> PlanNode:
        if isinstance(statement, ast.UnionAll):
            return self._plan_union(statement)
        if not isinstance(statement, ast.SelectStatement):
            raise PlanError(
                f"{type(statement).__name__} is not a query: DDL runs through "
                "execute_ddl, not as a submitted query"
            )
        if statement.from_clause is None:
            raise PlanError("queries without a FROM clause are not supported")
        scope = self._binder.build_scope(statement.from_clause)
        plan = self._plan_from(statement.from_clause, scope)
        plan, where = self._plan_subquery_conjuncts(statement.where, scope, plan)
        if where is not None:
            plan = Filter(
                plan, bound.fold_constants(self._binder.bind_scalar(where, scope))
            )
        if self._is_aggregate_query(statement):
            return self._plan_aggregate(statement, scope, plan)
        return self._plan_simple(statement, scope, plan)

    def _plan_union(self, union: ast.UnionAll) -> PlanNode:
        branches = [self.plan(branch) for branch in union.branches]
        first_schema = branches[0].output_schema()
        output_names = [name for name, _ in first_schema]
        for index, branch in enumerate(branches[1:], start=2):
            schema = branch.output_schema()
            if len(schema) != len(first_schema):
                raise BindError(
                    f"UNION ALL branch {index} has {len(schema)} columns, "
                    f"expected {len(first_schema)}"
                )
            for (_, want), (name, got) in zip(first_schema, schema):
                compatible = want is got or (want.is_numeric and got.is_numeric)
                if not compatible:
                    raise BindError(
                        f"UNION ALL branch {index} column {name!r} has type "
                        f"{got.value}, expected {want.value}"
                    )
        plan: PlanNode = UnionAllPlan(branches)
        if union.order_by:
            keys = []
            for order in union.order_by:
                target = None
                if isinstance(order.expr, ast.Literal) and isinstance(
                    order.expr.value, int
                ):
                    position = order.expr.value
                    if not 1 <= position <= len(output_names):
                        raise BindError(
                            f"ORDER BY position {position} is out of range"
                        )
                    target = output_names[position - 1]
                elif (
                    isinstance(order.expr, ast.ColumnRef)
                    and order.expr.table is None
                    and order.expr.name in output_names
                ):
                    target = order.expr.name
                if target is None:
                    raise BindError(
                        "UNION ALL ORDER BY must reference an output column "
                        "by name or position"
                    )
                keys.append(SortKey(target, order.ascending))
            plan = Sort(plan, keys)
        if union.limit is not None or union.offset is not None:
            plan = Limit(plan, union.limit, union.offset or 0)
        return plan

    def _plan_subquery_conjuncts(
        self,
        where: ast.Expr | None,
        scope,
        plan: PlanNode,
    ) -> tuple[PlanNode, ast.Expr | None]:
        """Convert top-level ``[NOT] IN (SELECT ...)`` conjuncts of the
        WHERE clause into semi/anti joins; return the remaining WHERE."""
        if where is None:
            return plan, None
        remaining: list[ast.Expr] = []
        for conjunct in split_conjuncts(where):
            if isinstance(conjunct, ast.InSubquery):
                plan = self._plan_in_subquery(conjunct, scope, plan)
                continue
            if any(
                isinstance(node, ast.InSubquery)
                for node in ast.walk_expr(conjunct)
            ):
                raise BindError(
                    "IN (SELECT ...) is only supported as a top-level "
                    "AND-conjunct of WHERE"
                )
            remaining.append(conjunct)
        rebuilt: ast.Expr | None = None
        for conjunct in remaining:
            rebuilt = (
                conjunct
                if rebuilt is None
                else ast.Binary("and", rebuilt, conjunct)
            )
        return plan, rebuilt

    def _plan_in_subquery(
        self, node: ast.InSubquery, scope, plan: PlanNode
    ) -> PlanNode:
        if not isinstance(node.expr, ast.ColumnRef):
            raise BindError(
                "the left side of IN (SELECT ...) must be a column"
            )
        left_key, left_type = self._binder_scope_resolve(scope, node.expr)
        sub_plan = self.plan(node.query)
        sub_schema = sub_plan.output_schema()
        if len(sub_schema) != 1:
            raise BindError(
                f"IN subquery must produce exactly one column, "
                f"got {len(sub_schema)}"
            )
        right_key, right_type = sub_schema[0]
        comparable = left_type is right_type or (
            left_type.is_numeric and right_type.is_numeric
        )
        if not comparable:
            raise BindError(
                f"IN subquery column type {right_type.value} does not "
                f"match {left_type.value}"
            )
        return HashJoin(
            left=plan,
            right=sub_plan,
            join_type=JoinType.ANTI if node.negated else JoinType.SEMI,
            left_keys=[left_key],
            right_keys=[right_key],
        )

    def _binder_scope_resolve(self, scope, column: ast.ColumnRef):
        return scope.resolve(column.name, column.table)

    # -- FROM clause --------------------------------------------------------

    def _plan_from(
        self, node: ast.TableRef | ast.Join, scope: Scope
    ) -> PlanNode:
        if isinstance(node, ast.TableRef):
            table = self._catalog.table(self._default_schema, node.name)
            binding = node.binding_name
            columns = [
                (f"{binding}.{column.name}", column.name) for column in table.columns
            ]
            return Scan(
                table=table,
                schema_name=self._default_schema,
                binding=binding,
                columns=columns,
            )
        left_plan = self._plan_from(node.left, scope)
        right_plan = self._plan_from(node.right, scope)
        left_bindings = _bindings_of(node.left)
        pairs, residual = self._binder.split_join_condition(
            node.condition, left_bindings, scope
        )
        join_type = (
            JoinType.LEFT if node.kind is ast.JoinKind.LEFT else JoinType.INNER
        )
        if join_type is JoinType.LEFT and not pairs:
            raise PlanError("LEFT JOIN requires at least one equality condition")
        return HashJoin(
            left=left_plan,
            right=right_plan,
            join_type=join_type,
            left_keys=[pair[0] for pair in pairs],
            right_keys=[pair[1] for pair in pairs],
            residual=residual,
        )

    # -- aggregate pipeline ----------------------------------------------------

    def _is_aggregate_query(self, statement: ast.SelectStatement) -> bool:
        if statement.group_by or statement.having is not None:
            return True
        exprs = [item.expr for item in statement.items]
        exprs += [order.expr for order in statement.order_by]
        return any(_contains_aggregate(expr) for expr in exprs)

    def _plan_aggregate(
        self, statement: ast.SelectStatement, scope: Scope, plan: PlanNode
    ) -> PlanNode:
        key_exprs = [
            (f"key_{index}", self._binder.bind_scalar(group_ast, scope))
            for index, group_ast in enumerate(statement.group_by)
        ]
        collector = AggCollector(
            group_asts=list(statement.group_by), key_exprs=key_exprs
        )
        visible: list[tuple[str, bound.BoundExpr]] = []
        select_asts: list[ast.Expr] = []
        aliases: list[str | None] = []
        for item in statement.items:
            if isinstance(item.expr, ast.Star):
                raise BindError("'*' is not valid in an aggregate query")
            expr = self._binder.bind_post(item.expr, scope, collector)
            visible.append((self._output_name(item, len(visible)), expr))
            select_asts.append(item.expr)
            aliases.append(item.alias)
        having_expr = None
        if statement.having is not None:
            having_expr = self._binder.bind_post(statement.having, scope, collector)
        _dedupe_output_names(visible)
        sort_keys, hidden = self._bind_order_keys(
            statement, visible, select_asts, aliases,
            lambda order_ast: self._binder.bind_post(order_ast, scope, collector),
        )
        pre_exprs = [
            (name, bound.fold_constants(expr))
            for name, expr in key_exprs + collector.arg_exprs
        ]
        # A bare COUNT(*) needs no computed inputs; a zero-expression
        # projection would lose the row count, so feed the input directly.
        pre_project = Project(plan, pre_exprs) if pre_exprs else plan
        aggregated: PlanNode = Aggregate(
            pre_project,
            group_keys=[name for name, _ in key_exprs],
            aggregates=collector.specs,
        )
        if having_expr is not None:
            aggregated = Filter(aggregated, bound.fold_constants(having_expr))
        return self._finish(statement, aggregated, visible, hidden, sort_keys)

    # -- non-aggregate pipeline ------------------------------------------------

    def _plan_simple(
        self, statement: ast.SelectStatement, scope: Scope, plan: PlanNode
    ) -> PlanNode:
        visible: list[tuple[str, bound.BoundExpr]] = []
        select_asts: list[ast.Expr] = []
        aliases: list[str | None] = []
        for item in statement.items:
            if isinstance(item.expr, ast.Star):
                for qualified, dtype in scope.all_columns(item.expr.table):
                    name = qualified.split(".", 1)[1]
                    visible.append((name, bound.BoundColumn(qualified, dtype)))
                    select_asts.append(
                        ast.ColumnRef(name, table=qualified.split(".", 1)[0])
                    )
                    aliases.append(None)
                continue
            expr = self._binder.bind_scalar(item.expr, scope)
            visible.append((self._output_name(item, len(visible)), expr))
            select_asts.append(item.expr)
            aliases.append(item.alias)
        _dedupe_output_names(visible)
        sort_keys, hidden = self._bind_order_keys(
            statement, visible, select_asts, aliases,
            lambda order_ast: self._binder.bind_scalar(order_ast, scope),
        )
        return self._finish(statement, plan, visible, hidden, sort_keys)

    # -- shared tail: project / sort / distinct / limit --------------------------

    def _bind_order_keys(
        self,
        statement: ast.SelectStatement,
        visible: list[tuple[str, bound.BoundExpr]],
        select_asts: list[ast.Expr],
        aliases: list[str | None],
        bind,
    ) -> tuple[list[SortKey], list[tuple[str, bound.BoundExpr]]]:
        """Resolve ORDER BY items to output columns or hidden sort columns."""
        sort_keys: list[SortKey] = []
        hidden: list[tuple[str, bound.BoundExpr]] = []
        for order in statement.order_by:
            target = self._resolve_order_target(
                order.expr, visible, select_asts, aliases
            )
            if target is None:
                name = f"__sort_{len(hidden)}"
                hidden.append((name, bind(order.expr)))
                target = name
            sort_keys.append(SortKey(target, order.ascending))
        if statement.distinct and hidden:
            raise BindError(
                "ORDER BY with DISTINCT must use columns from the SELECT list"
            )
        return sort_keys, hidden

    @staticmethod
    def _resolve_order_target(
        order_ast: ast.Expr,
        visible: list[tuple[str, bound.BoundExpr]],
        select_asts: list[ast.Expr],
        aliases: list[str | None],
    ) -> str | None:
        if isinstance(order_ast, ast.Literal) and isinstance(order_ast.value, int):
            position = order_ast.value
            if not 1 <= position <= len(visible):
                raise BindError(f"ORDER BY position {position} is out of range")
            return visible[position - 1][0]
        if isinstance(order_ast, ast.ColumnRef) and order_ast.table is None:
            for index, alias in enumerate(aliases):
                if alias == order_ast.name:
                    return visible[index][0]
        for index, select_ast in enumerate(select_asts):
            if order_ast == select_ast:
                return visible[index][0]
        return None

    def _finish(
        self,
        statement: ast.SelectStatement,
        plan: PlanNode,
        visible: list[tuple[str, bound.BoundExpr]],
        hidden: list[tuple[str, bound.BoundExpr]],
        sort_keys: list[SortKey],
    ) -> PlanNode:
        result: PlanNode = Project(
            plan,
            [(name, bound.fold_constants(expr)) for name, expr in visible + hidden],
        )
        if statement.distinct:
            result = Distinct(result)
        if sort_keys:
            result = Sort(result, sort_keys)
        if hidden:
            result = Project(
                result,
                [
                    (name, bound.BoundColumn(name, expr.dtype))
                    for name, expr in visible
                ],
            )
        if statement.limit is not None or statement.offset is not None:
            result = Limit(result, statement.limit, statement.offset or 0)
        return result

    @staticmethod
    def _output_name(item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"_col{index}"


def _bindings_of(node: ast.TableRef | ast.Join) -> set[str]:
    if isinstance(node, ast.TableRef):
        return {node.binding_name}
    return _bindings_of(node.left) | _bindings_of(node.right)


def _contains_aggregate(node: ast.Expr) -> bool:
    return any(
        isinstance(sub, ast.FunctionCall) and sub.name.lower() in AGGREGATE_FUNCTIONS
        for sub in ast.walk_expr(node)
    )


def _dedupe_output_names(visible: list[tuple[str, bound.BoundExpr]]) -> None:
    seen: dict[str, int] = {}
    for index, (name, expr) in enumerate(visible):
        if name in seen:
            seen[name] += 1
            visible[index] = (f"{name}_{seen[name]}", expr)
        else:
            seen[name] = 1
