"""Plan splitting for CF acceleration (paper §3.1).

"This is done by pushing down the expensive operators (e.g., table scans,
joins, and aggregations) from the top-level plan of the new coming query
into a sub-plan.  The ephemeral CF workers are then launched to execute
the sub-plan and return its result as a materialized view to the top-level
plan running in the VM cluster."

The splitter peels cheap tail operators (projection over aggregated rows,
HAVING filters, sort, distinct, limit) off the root until it reaches the
first expensive operator (scan, join, or aggregate).  Everything from that
operator down becomes the CF sub-plan; its seat in the top-level plan is
taken by a :class:`~repro.engine.plan.MaterializedView` leaf.  The plan
handed in is never modified: the top-level plan is a copy of the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.engine.batch import BatchStream
from repro.engine.plan import (
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    MaterializedView,
    PlanNode,
    Project,
    Scan,
    Sort,
    TopN,
)
from repro.storage.table import TableData

EXPENSIVE_NODES = (Scan, HashJoin, Aggregate)
CHEAP_TAIL_NODES = (Project, Filter, Sort, TopN, Limit, Distinct)


@dataclass
class SplitPlan:
    """Result of splitting a query plan for CF acceleration.

    Attributes:
        top: The (cheap) top-level plan that runs in the VM cluster; its
            leaf is ``view``.
        sub: The expensive sub-plan to execute in CF workers.
        view: The MaterializedView node inside ``top``; call
            :meth:`attach` with the sub-plan's result before running
            ``top``.
    """

    top: PlanNode
    sub: PlanNode
    view: MaterializedView

    def attach(self, data: TableData) -> None:
        """Wire the CF workers' result into the top-level plan."""
        self.view.data = data

    def attach_stream(self, batches: Iterator[TableData]) -> None:
        """Wire the CF workers' result in as a batch stream.

        The top-level plan then pulls the sub-plan's output incrementally
        (the coordinator's merge step consumes fragment batches as they
        arrive instead of waiting for a whole materialized table), and a
        top that stops early — e.g. a LIMIT above the view — stops the
        sub-plan's remaining work via generator close.
        """
        self.view.data = BatchStream(batches, self.sub.output_schema())


def split_plan(plan: PlanNode) -> SplitPlan:
    """Split ``plan`` at the boundary between cheap tail and expensive core.

    Always succeeds: when the root itself is expensive (the common case —
    e.g. a bare aggregation), the top-level plan degenerates to the
    materialized view itself, i.e. CF computes everything and the VM
    merely returns it.
    """
    tail: list[PlanNode] = []
    node = plan
    while isinstance(node, CHEAP_TAIL_NODES) and not isinstance(
        node, EXPENSIVE_NODES
    ):
        tail.append(node)
        node = node.input  # every cheap tail node is unary

    view = MaterializedView(
        name="cf_subplan_result",
        schema=node.output_schema(),
    )
    # ``plan`` is a prepared plan other runs share, so the tail is rebuilt
    # over the view instead of rewired: a shallow copy per (unary) node.
    top: PlanNode = view
    for cheap in reversed(tail):
        top = replace(cheap, input=top)  # type: ignore[call-arg]
    return SplitPlan(top=top, sub=node, view=view)
