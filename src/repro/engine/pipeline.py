"""The physical operator layer: a Volcano-style vectorized pipeline.

Every logical plan node lowers to exactly one :class:`PhysicalOperator`,
whose :meth:`~PhysicalOperator.batches` generator pulls its children's
generators and yields :class:`~repro.storage.table.TableData` slices of at
most ``batch_size`` rows: the pull protocol is the language's own iterator
protocol.  Each operator closes the child generators it opened when it
ends, stops early or fails, so a closed root closes the whole tree.
Operators come in two kinds:

* **streaming** (Scan, Filter, Project, Limit, MaterializedView): one
  batch in, at most one batch out, nothing retained between pulls — peak
  memory is bounded by the batch size.  Because the model is pull-based,
  LIMIT early-exit is structural: once a Limit stops pulling, the scan
  below it never fetches the remaining row groups, so a ``LIMIT 10`` over
  a billion-row table reads (and bills) only the leading row groups.
* **blocking** (Sort, TopN, Aggregate, Distinct, HashJoin, UnionAll):
  pipeline breakers that must see their whole input.  They drain their
  children, run the existing vectorized kernels from
  :mod:`repro.engine.physical` as sinks, and re-stream the result in
  batches — so a pipeline *above* a breaker is streaming again.

Operator timing is **virtual**: a deterministic per-operator cost derived
from the rows/bytes/batches it processed (the same modelling approach the
Turbo cost model uses for venues), never the wall clock.  EXPLAIN ANALYZE
output is therefore byte-reproducible across runs and machines, which the
deterministic-trace tests rely on.
"""

from __future__ import annotations

from contextlib import closing
from typing import Iterator

from repro.errors import ExecutionError
from repro.engine.batch import approx_table_nbytes, slices
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.physical import (
    execute_aggregate,
    execute_distinct,
    execute_hash_join,
    execute_semi_anti_join,
    execute_sort,
    execute_top_n,
    execute_union_all,
    join_tables,
)
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
from repro.engine.source import DataSource
from repro.storage.object_store import ScanCounters
from repro.storage.table import TableData

# Virtual-time rates for per-operator EXPLAIN ANALYZE timing.  Aligned
# with the VM tier's modelled throughput (200 MB/s scan, 4M rows/s) so the
# numbers read like a plausible single-worker profile, but their real job
# is determinism: identical plans over identical data always produce
# identical timings.
VIRTUAL_SECONDS_PER_ROW = 2.5e-7
VIRTUAL_SECONDS_PER_SCANNED_BYTE = 5e-9
VIRTUAL_SECONDS_PER_BATCH = 1e-6


class PhysicalOperator:
    """Base class: an executable counterpart of one logical plan node.

    Subclasses implement :meth:`batches`; the base class holds the
    per-operator accounting every operator shares (rows in/out, batches
    emitted, peak materialized bytes, and — for scans — the storage-side
    counters).  Iteration state lives in the generator's frame, never on
    the operator.
    """

    def __init__(self, node: PlanNode, children: "list[PhysicalOperator]") -> None:
        self.node = node
        self.children = children
        self.rows_in = 0
        self.rows_out = 0
        self.batches_out = 0
        self.peak_bytes = 0
        # Source granules processed (row groups for object-store scans);
        # a parallel scan yields the same granules, so the count is
        # worker-count invariant.
        self.morsels = 0
        self.counters = ScanCounters()

    def batches(self) -> Iterator[TableData]:
        """Yield this operator's output, batch by batch, pulled lazily."""
        raise NotImplementedError  # pragma: no cover

    # -- accounting --------------------------------------------------------

    def _emit(self, batch: TableData) -> TableData:
        self.rows_out += batch.num_rows
        self.batches_out += 1
        self.peak_bytes = max(self.peak_bytes, approx_table_nbytes(batch))
        return batch

    def own_virtual_seconds(self) -> float:
        """Deterministic modelled execution time of this operator alone."""
        return (
            (self.rows_in + self.rows_out) * VIRTUAL_SECONDS_PER_ROW
            + self.counters.bytes_scanned * VIRTUAL_SECONDS_PER_SCANNED_BYTE
            + self.batches_out * VIRTUAL_SECONDS_PER_BATCH
        )

    def count_operators(self) -> int:
        return 1 + sum(child.count_operators() for child in self.children)


class ScanOperator(PhysicalOperator):
    """Leaf: stream a table scan, one source granule at a time.

    Granules arrive at the source's natural fetch unit (a row group for
    object-store scans), already filtered by the scan's residual, and are
    re-sliced into batches; ``rows_in`` counts the rows the source read,
    before that filter.  The granule iterator is advanced lazily, so a
    consumer that stops pulling ends the scan with the remaining row
    groups unfetched — the early-exit half of the billing story (§3.2: pay
    for bytes actually scanned).

    With ``workers`` > 1 and a source that can read in parallel, granules
    come from ``scan_batches_parallel`` instead: the same granules in the
    same order (an object-store source cuts both from one morsel
    enumeration), their row groups read ahead on ``workers`` threads.
    """

    def __init__(
        self,
        node: Scan,
        source: DataSource,
        stats,
        batch_size: int,
        workers: int = 1,
    ) -> None:
        super().__init__(node, [])
        self._source = source
        self._stats = stats
        self._batch_size = batch_size
        self._workers = workers

    def batches(self) -> Iterator[TableData]:
        parallel = getattr(self._source, "scan_batches_parallel", None)
        if self._workers > 1 and parallel is not None:
            granules = parallel(self.node, self._workers)
        else:
            granules = self._source.scan_batches(self.node)
        # Closing the granule stream shuts a parallel scan's pool down.
        with closing(granules):
            for granule in granules:
                self._account(granule)
                pieces = slices(granule.data, self._batch_size)
                # A frame local would hold this row group (through the
                # granule or its last slice) while the next one is fetched.
                del granule
                yield from map(self._emit, pieces)

    def _account(self, granule) -> None:
        self.rows_in += granule.rows_scanned
        self.morsels += 1
        stats = self._stats
        stats.add(granule)
        stats.scan_latency_s += granule.latency_s
        stats.rows_scanned += granule.rows_scanned
        self.counters.add(granule)


class ViewOperator(PhysicalOperator):
    """Leaf serving a MaterializedView: a whole table (re-sliced, one
    morsel) or an attached iterator of tables pulled incrementally, one
    morsel each (how the Turbo coordinator merges CF fragment results).
    The iterator is closed when this operator ends, so a top plan that
    stops early stops the sub-plan feeding it."""

    def __init__(self, node: MaterializedView, batch_size: int) -> None:
        super().__init__(node, [])
        self._batch_size = batch_size

    def batches(self) -> Iterator[TableData]:
        data = self.node.data
        if data is None:
            raise ExecutionError(
                f"materialized view {self.node.name!r} has no data attached"
            )
        tables = (data,) if isinstance(data, TableData) else data
        try:
            for table in tables:
                self.morsels += 1
                pieces = slices(table, self._batch_size)
                del table  # as in the scan: not held while the next is pulled
                yield from map(self._emit, pieces)
        finally:
            close = getattr(tables, "close", None)
            if close is not None:
                close()

    def _emit(self, batch: TableData) -> TableData:
        # A leaf's input is what it emits: a consumer that stops early
        # leaves the rest of the table uncounted.
        self.rows_in += batch.num_rows
        return super()._emit(batch)


class FilterOperator(PhysicalOperator):
    def __init__(self, node: Filter, children: list[PhysicalOperator]) -> None:
        super().__init__(node, children)
        self._predicate = compile_expr(node.predicate)

    def batches(self) -> Iterator[TableData]:
        predicate = self._predicate
        with closing(self.children[0].batches()) as batches:
            for batch in batches:
                self.rows_in += batch.num_rows
                if batch.num_rows == 0:
                    continue
                filtered = batch.filter(mask_from_predicate(predicate(batch)))
                if filtered.num_rows:
                    yield self._emit(filtered)


class ProjectOperator(PhysicalOperator):
    def __init__(self, node: Project, children: list[PhysicalOperator]) -> None:
        super().__init__(node, children)
        self._exprs = [
            (name, compile_expr(expr)) for name, expr in node.exprs
        ]

    def batches(self) -> Iterator[TableData]:
        exprs = self._exprs
        with closing(self.children[0].batches()) as batches:
            for batch in batches:
                self.rows_in += batch.num_rows
                columns = {name: evaluate(batch) for name, evaluate in exprs}
                yield self._emit(TableData(columns))


class LimitOperator(PhysicalOperator):
    """Streaming OFFSET/LIMIT with early exit.

    Once the limit is satisfied the generator returns and closes its
    child — in a pull pipeline that *is* the stop signal: every operator
    below, down to the object-store scan, is never asked for work again.
    """

    def batches(self) -> Iterator[TableData]:
        to_skip = self.node.offset
        remaining = self.node.limit  # None = unbounded
        with closing(self.children[0].batches()) as batches:
            for data in batches:
                self.rows_in += data.num_rows
                if to_skip:
                    skip = min(to_skip, data.num_rows)
                    to_skip -= skip
                    data = data.slice(skip, data.num_rows)
                if data.num_rows == 0:
                    continue
                if remaining is not None:
                    take = min(remaining, data.num_rows)
                    remaining -= take
                    if take < data.num_rows:
                        data = data.slice(0, take)
                yield self._emit(data)
                if remaining == 0:
                    return


#: Plan-node names whose physical operators are pipeline breakers (the
#: :class:`BlockingOperator` subclasses below).  Profile nodes carry the
#: plan-node class name, so live progress reporting keys on this set to
#: decide which operators report a phase instead of a smooth fraction.
BLOCKING_PLAN_NODES = frozenset(
    {"Sort", "TopN", "Aggregate", "Distinct", "HashJoin", "UnionAllPlan"}
)


class BlockingOperator(PhysicalOperator):
    """Base for pipeline breakers: drain inputs, run a sink kernel once,
    re-stream the result."""

    def __init__(
        self, node: PlanNode, children: list[PhysicalOperator], batch_size: int
    ) -> None:
        super().__init__(node, children)
        self._batch_size = batch_size

    def _compute(self) -> TableData:
        raise NotImplementedError  # pragma: no cover

    def batches(self) -> Iterator[TableData]:
        result = self._compute()
        # Peak memory of a breaker is its materialized result (the
        # drained inputs were already released batch by batch).
        self.peak_bytes = max(self.peak_bytes, approx_table_nbytes(result))
        for batch in slices(result, self._batch_size):
            yield self._emit(batch)

    def _drain_child(self, child: PhysicalOperator) -> TableData:
        """Materialize a child's full output (the pipeline-breaker move)."""
        pieces: list[TableData] = []
        with closing(child.batches()) as batches:
            for batch in batches:
                self.rows_in += batch.num_rows
                pieces.append(batch)
        if not pieces:
            return TableData.empty(child.node.output_schema())
        return TableData.concat_all(pieces)


class SortOperator(BlockingOperator):
    def _compute(self) -> TableData:
        table = self._drain_child(self.children[0])
        return execute_sort(
            table, [(key.column, key.ascending) for key in self.node.keys]
        )


class TopNOperator(BlockingOperator):
    def _compute(self) -> TableData:
        table = self._drain_child(self.children[0])
        return execute_top_n(
            table,
            [(key.column, key.ascending) for key in self.node.keys],
            self.node.limit,
            self.node.offset,
        )


class AggregateOperator(BlockingOperator):
    def _compute(self) -> TableData:
        table = self._drain_child(self.children[0])
        return execute_aggregate(table, self.node.group_keys, self.node.aggregates)


class DistinctOperator(BlockingOperator):
    def _compute(self) -> TableData:
        return execute_distinct(self._drain_child(self.children[0]))


class HashJoinOperator(BlockingOperator):
    def _compute(self) -> TableData:
        node = self.node
        left = self._drain_child(self.children[0])
        right = self._drain_child(self.children[1])
        if node.join_type in (JoinType.SEMI, JoinType.ANTI):
            return execute_semi_anti_join(
                left, right, node.left_keys, node.right_keys,
                anti=node.join_type is JoinType.ANTI,
            )
        left_indices, right_indices = execute_hash_join(
            left, right, node.left_keys, node.right_keys,
            node.join_type is JoinType.LEFT,
        )
        return join_tables(
            left, right, left_indices, right_indices,
            node.join_type is JoinType.LEFT, node.residual,
        )


class UnionAllOperator(BlockingOperator):
    def _compute(self) -> TableData:
        return execute_union_all(
            [self._drain_child(child) for child in self.children],
            self.node.output_schema(),
        )


#: Blocking operator per pipeline-breaker plan node.
_BREAKERS = {
    Sort: SortOperator,
    TopN: TopNOperator,
    Aggregate: AggregateOperator,
    Distinct: DistinctOperator,
    HashJoin: HashJoinOperator,
    UnionAllPlan: UnionAllOperator,
}


def build_pipeline(
    plan: PlanNode, source: DataSource, stats, batch_size: int, workers: int = 1
) -> PhysicalOperator:
    """Lower a logical plan into its physical operator tree.

    The tree mirrors the plan node for node (EXPLAIN ANALYZE relies on
    this to zip the two trees), and it is the same tree for every
    ``workers``.  Pipelines break exactly at the blocking operators;
    everything between two breaks streams in ``batch_size`` batches.
    ``stats`` is the shared :class:`~repro.engine.executor.QueryStats` the
    scan leaves account into as they fetch.

    ``workers`` reaches only a Scan whose Filter/Project chain feeds a
    pipeline breaker: that scan is drained in full anyway, so reading its
    row groups on ``workers`` threads fetches nothing extra.  A Scan under
    a Limit, or one whose chain reaches the root, stays lazy and
    sequential, so early exit still bills only the row groups it reached.
    """
    return _lower(plan, source, stats, batch_size, workers, 1)


def _lower(
    node: PlanNode,
    source: DataSource,
    stats,
    batch_size: int,
    workers: int,
    scan_workers: int,
) -> PhysicalOperator:
    """:func:`build_pipeline` for one node; ``scan_workers`` is what a Scan
    reached through Filter/Project from here reads with.  (A module-level
    function, not a nested one: a recursive closure is a reference cycle
    that would keep ``source`` and ``stats`` alive until the collector ran.)
    """
    if isinstance(node, Scan):
        return ScanOperator(node, source, stats, batch_size, scan_workers)
    if isinstance(node, MaterializedView):
        return ViewOperator(node, batch_size)
    if isinstance(node, (Filter, Project, Limit)):
        # A Limit stops pulling early, so the scan under it stays lazy.
        below = 1 if isinstance(node, Limit) else scan_workers
        child = _lower(node.input, source, stats, batch_size, workers, below)
        if isinstance(node, Filter):
            return FilterOperator(node, [child])
        if isinstance(node, Project):
            return ProjectOperator(node, [child])
        return LimitOperator(node, [child])
    breaker = _BREAKERS.get(type(node))
    if breaker is None:
        raise ExecutionError(f"unknown plan node {type(node).__name__}")
    children = [
        _lower(child, source, stats, batch_size, workers, workers)
        for child in node.children()
    ]
    return breaker(node, children, batch_size)
