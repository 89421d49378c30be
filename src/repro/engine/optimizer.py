"""Rule-based plan optimizer.

Four passes, applied in order:

1. **Equi-predicate extraction** — WHERE conjuncts of the form
   ``left.col = right.col`` spanning an inner join's two sides become join
   keys (this is what makes comma joins executable as hash joins).
2. **Predicate push-down** — remaining conjuncts move below joins to the
   side they reference; conjuncts reaching a Scan become (a) zone-map
   ``ranges`` used to skip row groups and (b) the scan's ``residual``
   row-level filter.  LEFT joins only accept pushes to their left side.
3. **Build-side swap** — each inner hash join builds on its smaller input
   (row estimates from catalog statistics with simple selectivity rules).
4. **Sort+Limit → Top-N fusion** — a ``Limit`` directly above a ``Sort``
   (or separated from it only by the planner's helper-column-dropping
   ``Project``) becomes one :class:`~repro.engine.plan.TopN` node, executed
   by partial
   selection (``np.argpartition`` of the top ``k + offset`` rows, then a
   sort of only the survivors) so ``ORDER BY … LIMIT k`` never fully sorts
   its input.
5. **Projection pruning** — scans read only columns actually referenced
   above them, which is what makes bytes-*scanned* (the billing basis)
   track the query rather than the table width.
"""

from __future__ import annotations

from repro.engine import expr as bound
from repro.engine.plan import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    JoinType,
    Limit,
    MaterializedView,
    PlanNode,
    Project,
    Scan,
    Sort,
    TopN,
    UnionAllPlan,
)

RANGE_OPS = {"=", "<", "<=", ">", ">="}


class Optimizer:
    """Applies the rewrite passes to a logical plan."""

    def optimize(self, plan: PlanNode) -> PlanNode:
        plan = self._rewrite_filters(plan)
        plan = self._swap_build_sides(plan)
        plan = self._fuse_top_n(plan)
        self._prune_projections(plan, required=None)
        return plan

    # -- passes 1 & 2: filter rewriting and push-down ---------------------------

    def _rewrite_filters(self, node: PlanNode) -> PlanNode:
        if isinstance(node, UnionAllPlan):
            node.inputs = [self._rewrite_filters(c) for c in node.inputs]
            return node
        for attr in ("input", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                setattr(node, attr, self._rewrite_filters(child))
        if isinstance(node, Filter):
            conjuncts = split_conjuncts(node.predicate)
            remaining = self._push_conjuncts(node.input, conjuncts)
            if not remaining:
                return node.input
            node.predicate = and_all(remaining)
        return node

    def _push_conjuncts(
        self, node: PlanNode, conjuncts: list[bound.BoundExpr]
    ) -> list[bound.BoundExpr]:
        """Push what we can into ``node``; return the conjuncts that could
        not be absorbed (they stay in the parent filter)."""
        if isinstance(node, Scan):
            for conjunct in conjuncts:
                self._absorb_into_scan(node, conjunct)
            return []
        if isinstance(node, HashJoin):
            return self._push_into_join(node, conjuncts)
        if isinstance(node, Filter):
            remaining = self._push_conjuncts(node.input, conjuncts)
            return remaining
        return conjuncts

    def _push_into_join(
        self, join: HashJoin, conjuncts: list[bound.BoundExpr]
    ) -> list[bound.BoundExpr]:
        left_columns = {name for name, _ in join.left.output_schema()}
        right_columns = {name for name, _ in join.right.output_schema()}
        remaining: list[bound.BoundExpr] = []
        to_left: list[bound.BoundExpr] = []
        to_right: list[bound.BoundExpr] = []
        for conjunct in conjuncts:
            pair = _equi_pair(conjunct, left_columns, right_columns)
            if pair is not None and join.join_type is JoinType.INNER:
                join.left_keys.append(pair[0])
                join.right_keys.append(pair[1])
                continue
            refs = conjunct.references()
            if refs and refs <= left_columns:
                to_left.append(conjunct)
            elif (
                refs
                and refs <= right_columns
                and join.join_type is JoinType.INNER
            ):
                to_right.append(conjunct)
            else:
                remaining.append(conjunct)
        if to_left:
            leftover = self._push_conjuncts(join.left, to_left)
            if leftover:
                join.left = Filter(join.left, and_all(leftover))
        if to_right:
            leftover = self._push_conjuncts(join.right, to_right)
            if leftover:
                join.right = Filter(join.right, and_all(leftover))
        return remaining

    def _absorb_into_scan(self, scan: Scan, conjunct: bound.BoundExpr) -> None:
        """Fold a conjunct into the scan: zone-map range + residual filter.

        The range is only a row-group pruning hint; the conjunct always
        also joins the residual so row-level semantics are exact.
        """
        absorb_range(scan, conjunct)
        scan.residual = (
            conjunct
            if scan.residual is None
            else bound.BoundLogical.bind("and", scan.residual, conjunct)
        )

    # -- pass 3: build-side swap --------------------------------------------------

    def _swap_build_sides(self, node: PlanNode) -> PlanNode:
        if isinstance(node, UnionAllPlan):
            node.inputs = [self._swap_build_sides(c) for c in node.inputs]
            return node
        for attr in ("input", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                setattr(node, attr, self._swap_build_sides(child))
        if (
            isinstance(node, HashJoin)
            and node.join_type is JoinType.INNER
            and estimate_rows(node.right) > estimate_rows(node.left)
        ):
            node.left, node.right = node.right, node.left
            node.left_keys, node.right_keys = node.right_keys, node.left_keys
        return node

    # -- pass 4: Sort+Limit fusion ---------------------------------------------------

    def _fuse_top_n(self, node: PlanNode) -> PlanNode:
        if isinstance(node, UnionAllPlan):
            node.inputs = [self._fuse_top_n(c) for c in node.inputs]
            return node
        for attr in ("input", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                setattr(node, attr, self._fuse_top_n(child))
        if isinstance(node, Limit) and node.limit is not None:
            if isinstance(node.input, Sort):
                return TopN(
                    input=node.input.input,
                    keys=node.input.keys,
                    limit=node.limit,
                    offset=node.offset,
                )
            # The planner drops ``__sort_N`` helper columns with a Project
            # right above the Sort; a row-wise Project preserves order and
            # cardinality, so the fusion commutes through it.
            if isinstance(node.input, Project) and isinstance(
                node.input.input, Sort
            ):
                project = node.input
                sort = project.input
                project.input = TopN(
                    input=sort.input,
                    keys=sort.keys,
                    limit=node.limit,
                    offset=node.offset,
                )
                return project
        return node

    # -- pass 5: projection pruning ------------------------------------------------

    def _prune_projections(
        self, node: PlanNode, required: set[str] | None
    ) -> None:
        """``required=None`` means "all outputs are needed" (the root)."""
        if isinstance(node, Scan):
            if required is not None:
                if node.residual is not None:
                    required = required | node.residual.references()
                kept = [
                    (out, base) for out, base in node.columns if out in required
                ]
                if not kept:  # keep one column so row counts survive
                    kept = node.columns[:1]
                node.columns = kept
            return
        if isinstance(node, MaterializedView):
            return
        if isinstance(node, UnionAllPlan):
            # Branch outputs align positionally: every column is required.
            for child in node.inputs:
                self._prune_projections(child, None)
            return
        if isinstance(node, Project):
            child_required: set[str] = set()
            for _, expr in node.exprs:
                child_required |= expr.references()
            self._prune_projections(node.input, child_required)
            return
        if isinstance(node, Filter):
            child_required = (
                None
                if required is None
                else required | node.predicate.references()
            )
            self._prune_projections(node.input, child_required)
            return
        if isinstance(node, HashJoin):
            left_columns = {name for name, _ in node.left.output_schema()}
            right_columns = {name for name, _ in node.right.output_schema()}
            needed = set() if required is None else set(required)
            needed |= set(node.left_keys) | set(node.right_keys)
            if node.residual is not None:
                needed |= node.residual.references()
            left_required = None if required is None else needed & left_columns
            right_required = None if required is None else needed & right_columns
            self._prune_projections(node.left, left_required)
            self._prune_projections(node.right, right_required)
            return
        if isinstance(node, Aggregate):
            child_required = set(node.group_keys) | {
                spec.input_column
                for spec in node.aggregates
                if spec.input_column is not None
            }
            self._prune_projections(node.input, child_required)
            return
        if isinstance(node, (Sort, TopN)):
            child_required = (
                None
                if required is None
                else required | {key.column for key in node.keys}
            )
            self._prune_projections(node.input, child_required)
            return
        if isinstance(node, (Limit, Distinct)):
            self._prune_projections(node.input, required)
            return
        for child in node.children():  # pragma: no cover - future node types
            self._prune_projections(child, None)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def split_conjuncts(expr: bound.BoundExpr) -> list[bound.BoundExpr]:
    """Flatten a BoundLogical AND tree into conjuncts."""
    if isinstance(expr, bound.BoundLogical) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_all(conjuncts: list[bound.BoundExpr]) -> bound.BoundExpr:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = bound.BoundLogical.bind("and", result, conjunct)
    return result


def _equi_pair(
    conjunct: bound.BoundExpr,
    left_columns: set[str],
    right_columns: set[str],
) -> tuple[str, str] | None:
    if not (
        isinstance(conjunct, bound.BoundComparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, bound.BoundColumn)
        and isinstance(conjunct.right, bound.BoundColumn)
    ):
        return None
    a, b = conjunct.left.name, conjunct.right.name
    if a in left_columns and b in right_columns:
        return a, b
    if b in left_columns and a in right_columns:
        return b, a
    return None


def absorb_range(scan: Scan, conjunct: bound.BoundExpr) -> None:
    """Narrow ``scan.ranges`` by the conjunct's zone-map hint, if it has
    one on a column the scan reads."""
    range_hint = _range_hint(conjunct)
    if range_hint is None:
        return
    qualified, low, high = range_hint
    for out_name, base in scan.columns:
        if out_name == qualified:
            current = scan.ranges.get(base, (None, None))
            scan.ranges[base] = _intersect_range(current, (low, high))
            return


def _range_hint(
    conjunct: bound.BoundExpr,
) -> tuple[str, object | None, object | None] | None:
    """Extract a (qualified column, low, high) zone-map hint, if any."""
    if not isinstance(conjunct, bound.BoundComparison):
        return None
    if conjunct.op not in RANGE_OPS:
        return None
    column, literal, op = None, None, conjunct.op
    if isinstance(conjunct.left, bound.BoundColumn) and isinstance(
        conjunct.right, bound.BoundLiteral
    ):
        column, literal = conjunct.left, conjunct.right
    elif isinstance(conjunct.right, bound.BoundColumn) and isinstance(
        conjunct.left, bound.BoundLiteral
    ):
        column, literal = conjunct.right, conjunct.left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
    if column is None or literal is None or literal.value is None:
        return None
    value = literal.value
    if op == "=":
        return column.name, value, value
    if op in ("<", "<="):
        return column.name, None, value
    return column.name, value, None


def _intersect_range(
    a: tuple[object | None, object | None],
    b: tuple[object | None, object | None],
) -> tuple[object | None, object | None]:
    low_a, high_a = a
    low_b, high_b = b
    low = low_b if low_a is None else (low_a if low_b is None else max(low_a, low_b))  # type: ignore[type-var]
    high = (
        high_b if high_a is None else (high_a if high_b is None else min(high_a, high_b))  # type: ignore[type-var]
    )
    return low, high


def estimate_rows(node: PlanNode) -> float:
    """Crude cardinality estimate used for build-side selection."""
    if isinstance(node, Scan):
        return float(max(node.table.row_count, 1))
    if isinstance(node, MaterializedView):
        data = node.data
        return float(getattr(data, "num_rows", 1) or 1)
    if isinstance(node, Filter):
        return estimate_rows(node.input) / 3.0
    if isinstance(node, HashJoin):
        return max(estimate_rows(node.left), estimate_rows(node.right))
    if isinstance(node, Aggregate):
        return max(estimate_rows(node.input) ** 0.5, 1.0)
    if isinstance(node, Limit) and node.limit is not None:
        return float(min(node.limit, estimate_rows(node.input)))
    if isinstance(node, TopN):
        return float(min(node.limit, estimate_rows(node.input)))
    children = node.children()
    if not children:
        return 1.0
    return estimate_rows(children[0])
