"""Logical plan nodes.

A plan is a tree of dataclass nodes; leaves are :class:`Scan`.  Column flow
is by qualified name: a scan of table ``orders`` bound as ``o`` produces
columns named ``o.o_orderkey`` etc., and every expression above references
those names.  The optimizer rewrites plans in place-free style (nodes are
plain dataclasses, rebuilt when changed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.engine.expr import BoundExpr
from repro.storage.catalog import TableMeta
from repro.storage.types import DataType


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> list["PlanNode"]:
        return []

    def output_schema(self) -> list[tuple[str, DataType]]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan rendering (the ``EXPLAIN`` output)."""
        pad = "  " * indent
        lines = [pad + self._describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__


@dataclass
class Scan(PlanNode):
    """Leaf: read a base table.

    ``columns`` is the projection (qualified output names mapped to base
    column names); ``ranges`` are zone-map bounds pushed down by the
    optimizer; ``residual`` is the part of the pushed predicate zone maps
    cannot fully decide, applied by the data source as it reads.
    """

    table: TableMeta
    schema_name: str
    binding: str
    columns: list[tuple[str, str]] = field(default_factory=list)  # (out, base)
    ranges: dict[str, tuple[object | None, object | None]] = field(
        default_factory=dict
    )  # keyed by base column name
    residual: BoundExpr | None = None

    def output_schema(self) -> list[tuple[str, DataType]]:
        return [
            (out_name, self.table.column(base_name).dtype)
            for out_name, base_name in self.columns
        ]

    def _describe(self) -> str:
        parts = [f"Scan {self.schema_name}.{self.table.name} AS {self.binding}"]
        if self.ranges:
            parts.append(f"ranges={self.ranges}")
        if self.residual is not None:
            parts.append(f"residual={self.residual.to_sql()}")
        return " ".join(parts)


@dataclass
class Filter(PlanNode):
    input: PlanNode
    predicate: BoundExpr

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.input.output_schema()

    def _describe(self) -> str:
        return f"Filter {self.predicate.to_sql()}"


@dataclass
class Project(PlanNode):
    """Compute named expressions over the input."""

    input: PlanNode
    exprs: list[tuple[str, BoundExpr]]  # (output name, expression)

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return [(name, expr.dtype) for name, expr in self.exprs]

    def _describe(self) -> str:
        inner = ", ".join(f"{expr.to_sql()} AS {name}" for name, expr in self.exprs)
        return f"Project {inner}"


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"  # IN (SELECT ...): left rows with >=1 match
    ANTI = "anti"  # NOT IN (SELECT ...): left rows with no match


@dataclass
class HashJoin(PlanNode):
    """Equi hash join; ``residual`` filters pairs after key matching."""

    left: PlanNode
    right: PlanNode
    join_type: JoinType
    left_keys: list[str]
    right_keys: list[str]
    residual: BoundExpr | None = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def output_schema(self) -> list[tuple[str, DataType]]:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return self.left.output_schema()
        return self.left.output_schema() + self.right.output_schema()

    def _describe(self) -> str:
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        text = f"HashJoin[{self.join_type.value}] {keys}"
        if self.residual is not None:
            text += f" residual={self.residual.to_sql()}"
        return text


class AggFunc(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass
class AggSpec:
    """One aggregate computation: ``func(input_column)`` → ``output``.

    ``input_column`` is None for ``COUNT(*)``.
    """

    func: AggFunc
    input_column: str | None
    output: str
    distinct: bool = False
    dtype: DataType = DataType.BIGINT

    def describe(self) -> str:
        arg = self.input_column or "*"
        maybe_distinct = "DISTINCT " if self.distinct else ""
        return f"{self.func.value}({maybe_distinct}{arg}) AS {self.output}"


@dataclass
class Aggregate(PlanNode):
    """Hash aggregation: group by ``group_keys`` (input column names),
    compute ``aggregates``.  With no group keys, produces one global row."""

    input: PlanNode
    group_keys: list[str]
    aggregates: list[AggSpec]

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        input_schema = dict(self.input.output_schema())
        keys = [(key, input_schema[key]) for key in self.group_keys]
        aggs = [(spec.output, spec.dtype) for spec in self.aggregates]
        return keys + aggs

    def _describe(self) -> str:
        keys = ", ".join(self.group_keys) or "<global>"
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Aggregate keys=[{keys}] aggs=[{aggs}]"


@dataclass
class SortKey:
    column: str
    ascending: bool = True


@dataclass
class Sort(PlanNode):
    input: PlanNode
    keys: list[SortKey]

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.input.output_schema()

    def _describe(self) -> str:
        keys = ", ".join(
            f"{key.column} {'ASC' if key.ascending else 'DESC'}" for key in self.keys
        )
        return f"Sort {keys}"


@dataclass
class TopN(PlanNode):
    """Fused ``Sort`` + ``Limit``: the optimizer rewrites
    ``ORDER BY … LIMIT k [OFFSET m]`` into one node so the executor can use
    partial selection (argpartition over the top ``k + m``) instead of a
    full sort.  Semantics are exactly ``Limit(Sort(input))``."""

    input: PlanNode
    keys: list[SortKey]
    limit: int
    offset: int = 0

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.input.output_schema()

    def _describe(self) -> str:
        keys = ", ".join(
            f"{key.column} {'ASC' if key.ascending else 'DESC'}" for key in self.keys
        )
        return f"TopN {keys} LIMIT {self.limit} OFFSET {self.offset}"


@dataclass
class Limit(PlanNode):
    input: PlanNode
    limit: int | None
    offset: int = 0

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.input.output_schema()

    def _describe(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"


@dataclass
class UnionAllPlan(PlanNode):
    """Bag concatenation of branch plans; positional column alignment,
    output names from the first branch."""

    inputs: list[PlanNode]

    def children(self) -> list[PlanNode]:
        return list(self.inputs)

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.inputs[0].output_schema()

    def _describe(self) -> str:
        return f"UnionAll ({len(self.inputs)} branches)"


@dataclass
class MaterializedView(PlanNode):
    """Leaf holding already-computed rows.

    This is the seam the Turbo plan splitter uses: the expensive subtree of
    a query is executed by CF workers, and the top-level plan (running in
    the VM cluster) sees its result as a materialized view (§3.1).
    """

    name: str
    schema: list[tuple[str, DataType]]
    data: object = None  # TableData, typed loosely to avoid an import cycle

    def output_schema(self) -> list[tuple[str, DataType]]:
        return list(self.schema)

    def _describe(self) -> str:
        return f"MaterializedView {self.name}"


@dataclass
class Distinct(PlanNode):
    input: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.input]

    def output_schema(self) -> list[tuple[str, DataType]]:
        return self.input.output_schema()


def walk_plan(node: PlanNode):
    """Yield every node in the tree, pre-order."""
    yield node
    for child in node.children():
        yield from walk_plan(child)


def plan_scans(node: PlanNode) -> list[Scan]:
    """All Scan leaves of the plan."""
    return [n for n in walk_plan(node) if isinstance(n, Scan)]
