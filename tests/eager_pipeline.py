# The Volcano pipeline the engine replaced with one ``batches()`` generator
# per operator, kept verbatim as the oracle of tests/test_pipeline_oracle.py:
# engine/batch.py, then engine/pipeline.py, then the two driver loops of
# engine/executor.py (``StreamingExecution`` and ``QueryExecutor``); only
# the imports changed.  ``attach_stream`` is ``SplitPlan.attach_stream``'s
# body as it was.
"""Record batches: the unit of data flow in the vectorized pipeline.

The pipeline executor (:mod:`repro.engine.pipeline`) moves data between
physical operators as fixed-size :class:`RecordBatch` slices instead of
whole tables.  A batch is a *view*: slicing a :class:`~repro.storage.table
.TableData` goes through ``numpy`` basic slicing, so the column buffers are
shared with the parent table (zero-copy for every non-object dtype).

Batching is what bounds peak memory in streaming operators (at most one
batch is materialized per operator) and what makes LIMIT early-exit
possible: once a consumer stops asking for batches, upstream operators —
all the way down to the object-store scan — never do the remaining work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ExecutionError
from repro.engine.executor import (
    OperatorProfile,
    QueryResult,
    QueryStats,
    _build_profile,
)
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.physical import (
    execute_aggregate,
    execute_distinct,
    execute_hash_join,
    execute_limit,
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
from repro.storage.types import ColumnVector, DataType


DEFAULT_BATCH_SIZE = 4096
"""Rows per batch.  Large enough that per-batch (python-level) overhead is
amortized across thousands of rows of vectorized work, small enough that a
streaming pipeline's working set stays in cache-friendly territory."""


def approx_vector_nbytes(vector: ColumnVector) -> int:
    """Cheap O(1) in-memory size estimate used for peak-memory accounting.

    Unlike :meth:`ColumnVector.nbytes` this never walks VARCHAR payloads
    (which would re-encode every string to UTF-8); object columns are
    counted at pointer width.  Peak-materialized-bytes is an operator
    memory gauge, not a billing basis, so the approximation is fine.
    """
    if vector.dtype is DataType.VARCHAR:
        size = 8 * len(vector)  # either representation; never builds strings
    else:
        size = int(vector.data.nbytes)
    if vector.nulls is not None:
        size += int(vector.nulls.nbytes)
    return size


def approx_table_nbytes(table: TableData) -> int:
    """O(columns) size estimate of a table (see :func:`approx_vector_nbytes`)."""
    return sum(approx_vector_nbytes(vector) for vector in table.columns.values())


@dataclass(frozen=True)
class RecordBatch:
    """A bounded horizontal slice of a table, exchanged between operators.

    ``data`` shares buffers with whatever produced it — operators must not
    mutate column arrays in place.
    """

    data: TableData

    @property
    def num_rows(self) -> int:
        return self.data.num_rows

    @property
    def column_names(self) -> list[str]:
        return self.data.column_names

    def approx_nbytes(self) -> int:
        return approx_table_nbytes(self.data)

    @staticmethod
    def slices(table: TableData, batch_size: int) -> Iterator["RecordBatch"]:
        """Yield ``table`` as zero-copy batches of at most ``batch_size`` rows.

        An empty table yields nothing (the pipeline driver rebuilds the
        schema from the plan when no batch arrives).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        total = table.num_rows
        start = 0
        while start < total:
            stop = min(start + batch_size, total)
            yield RecordBatch(table.slice(start, stop))
            start = stop


class BatchStream:
    """A single-use stream of table batches attachable to a
    :class:`~repro.engine.plan.MaterializedView`.

    This is the seam that makes the Turbo coordinator's merge step
    incremental: instead of materializing the CF sub-plan's full result and
    handing it to the top-level plan as one table, the coordinator attaches
    the sub-executor's batch iterator, and the top-level pipeline pulls it
    batch by batch.  If the top-level plan stops early (LIMIT), closing the
    stream propagates all the way back into the sub-plan's scan.
    """

    def __init__(
        self,
        batches: Iterator[TableData],
        schema: list[tuple[str, DataType]],
    ) -> None:
        self._batches = batches
        self._schema = list(schema)
        self._closed = False
        self.batches_consumed = 0

    def schema(self) -> list[tuple[str, DataType]]:
        return list(self._schema)

    def next_table(self) -> TableData | None:
        if self._closed:
            return None
        piece = next(self._batches, None)
        if piece is None:
            self.close()
            return None
        self.batches_consumed += 1
        return piece

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()


"""The physical operator layer: a Volcano-style vectorized pipeline.

Every logical plan node lowers to exactly one :class:`PhysicalOperator`
with the classic ``open() / next_batch() / close()`` interface, pulling
:class:`~repro.engine.batch.RecordBatch` slices of at most ``batch_size``
rows.  Operators come in two kinds:

* **streaming** (Scan, Filter, Project, Limit, MaterializedView): one
  batch in, at most one batch out, nothing retained between calls — peak
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

    Subclasses implement :meth:`next_batch`; the base class manages the
    child lifecycle and the per-operator accounting every operator shares
    (rows in/out, batches emitted, peak materialized bytes, and — for
    scans — the storage-side counters).
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

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        for child in self.children:
            child.open()

    def next_batch(self) -> RecordBatch | None:
        raise NotImplementedError  # pragma: no cover

    def close(self) -> None:
        for child in self.children:
            child.close()

    # -- accounting --------------------------------------------------------

    def _emit(self, batch: RecordBatch) -> RecordBatch:
        self.rows_out += batch.num_rows
        self.batches_out += 1
        self.peak_bytes = max(self.peak_bytes, batch.approx_nbytes())
        return batch

    def _pull(self, child: "PhysicalOperator") -> RecordBatch | None:
        batch = child.next_batch()
        if batch is not None:
            self.rows_in += batch.num_rows
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

    # -- helpers for blocking subclasses ------------------------------------

    def _drain_child(self, child: "PhysicalOperator") -> TableData:
        """Materialize a child's full output (the pipeline-breaker move)."""
        pieces: list[TableData] = []
        while True:
            batch = self._pull(child)
            if batch is None:
                break
            pieces.append(batch.data)
        if not pieces:
            return TableData.empty(child.node.output_schema())
        return TableData.concat_all(pieces)


class ScanOperator(PhysicalOperator):
    """Leaf: stream a table scan, one source granule at a time.

    Granules arrive at the source's natural fetch unit (a row group for
    object-store scans), already filtered by the scan's residual, and are
    re-sliced into record batches; ``rows_in`` counts the rows the source
    read, before that filter.  The granule iterator is advanced lazily, so
    a consumer that stops pulling ends the scan with the remaining row
    groups unfetched — the early-exit half of the billing story (§3.2: pay
    for bytes actually scanned).

    With ``workers`` > 1 and a source that can read in parallel, granules
    come from ``scan_batches_parallel`` instead: the same granules in the
    same order, their row groups read ahead on ``workers`` threads.
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
        self._granules: Iterator | None = None
        self._slices: Iterator[RecordBatch] | None = None

    def open(self) -> None:
        parallel = getattr(self._source, "scan_batches_parallel", None)
        if self._workers > 1 and parallel is not None:
            self._granules = parallel(self.node, self._workers)
        else:
            self._granules = self._source.scan_batches(self.node)

    def next_batch(self) -> RecordBatch | None:
        assert self._granules is not None, "operator not opened"
        while True:
            if self._slices is not None:
                batch = next(self._slices, None)
                if batch is not None:
                    return self._emit(batch)
                self._slices = None
            granule = next(self._granules, None)
            if granule is None:
                return None
            self._account(granule)
            self._slices = RecordBatch.slices(granule.data, self._batch_size)

    def _account(self, granule) -> None:
        self.rows_in += granule.rows_scanned
        self.morsels += 1
        stats = self._stats
        stats.add(granule)
        stats.scan_latency_s += granule.latency_s
        stats.rows_scanned += granule.rows_scanned
        self.counters.add(granule)

    def close(self) -> None:
        if self._granules is not None:
            closer = getattr(self._granules, "close", None)
            if closer is not None:
                closer()
            self._granules = None
        self._slices = None


class ViewOperator(PhysicalOperator):
    """Leaf serving a MaterializedView: a whole table (re-sliced) or an
    attached :class:`~repro.engine.batch.BatchStream` pulled incrementally
    (how the Turbo coordinator merges CF fragment results)."""

    def __init__(self, node: MaterializedView, batch_size: int) -> None:
        super().__init__(node, [])
        self._batch_size = batch_size
        self._slices: Iterator[RecordBatch] | None = None
        self._stream: BatchStream | None = None
        self._table_done = False

    def open(self) -> None:
        data = self.node.data
        if isinstance(data, BatchStream):
            self._stream = data
        elif isinstance(data, TableData):
            self.morsels += 1
            self._slices = RecordBatch.slices(data, self._batch_size)
        else:
            raise ExecutionError(
                f"materialized view {self.node.name!r} has no data attached"
            )

    def next_batch(self) -> RecordBatch | None:
        while True:
            if self._slices is not None:
                batch = next(self._slices, None)
                if batch is not None:
                    self.rows_in += batch.num_rows
                    return self._emit(batch)
                self._slices = None
                if self._stream is None:
                    return None
            elif self._stream is None:
                return None
            piece = self._stream.next_table()
            if piece is None:
                return None
            self.morsels += 1
            self._slices = RecordBatch.slices(piece, self._batch_size)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._slices = None


class FilterOperator(PhysicalOperator):
    def __init__(self, node: Filter, children: list[PhysicalOperator]) -> None:
        super().__init__(node, children)
        self._predicate = compile_expr(node.predicate)

    def next_batch(self) -> RecordBatch | None:
        (child,) = self.children
        while True:
            batch = self._pull(child)
            if batch is None:
                return None
            if batch.num_rows == 0:
                continue
            mask = mask_from_predicate(self._predicate(batch.data))
            filtered = batch.data.filter(mask)
            if filtered.num_rows == 0:
                continue
            return self._emit(RecordBatch(filtered))


class ProjectOperator(PhysicalOperator):
    def __init__(self, node: Project, children: list[PhysicalOperator]) -> None:
        super().__init__(node, children)
        self._exprs = [
            (name, compile_expr(expr)) for name, expr in node.exprs
        ]

    def next_batch(self) -> RecordBatch | None:
        (child,) = self.children
        batch = self._pull(child)
        if batch is None:
            return None
        columns: dict[str, ColumnVector] = {}
        for name, evaluate in self._exprs:
            columns[name] = evaluate(batch.data)
        return self._emit(RecordBatch(TableData(columns)))


class LimitOperator(PhysicalOperator):
    """Streaming OFFSET/LIMIT with early exit.

    Once the limit is satisfied the operator never pulls its child again —
    in a pull pipeline that *is* the stop signal: every operator below,
    down to the object-store scan, simply stops being asked for work.
    """

    def __init__(self, node: Limit, children: list[PhysicalOperator]) -> None:
        super().__init__(node, children)
        self._to_skip = node.offset
        self._remaining = node.limit  # None = unbounded
        self._done = False

    def next_batch(self) -> RecordBatch | None:
        if self._done:
            return None
        (child,) = self.children
        while True:
            batch = self._pull(child)
            if batch is None:
                self._done = True
                return None
            data = batch.data
            if self._to_skip:
                skip = min(self._to_skip, data.num_rows)
                self._to_skip -= skip
                data = data.slice(skip, data.num_rows)
            if data.num_rows == 0:
                continue
            if self._remaining is not None:
                take = min(self._remaining, data.num_rows)
                self._remaining -= take
                if take < data.num_rows:
                    data = data.slice(0, take)
                if self._remaining == 0:
                    self._done = True
            return self._emit(RecordBatch(data))


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
        self._slices: Iterator[RecordBatch] | None = None
        self._computed = False

    def _compute(self) -> TableData:
        raise NotImplementedError  # pragma: no cover

    def next_batch(self) -> RecordBatch | None:
        if not self._computed:
            result = self._compute()
            self._computed = True
            # Peak memory of a breaker is its materialized result (the
            # drained inputs were already released batch by batch).
            self.peak_bytes = max(self.peak_bytes, approx_table_nbytes(result))
            self._slices = RecordBatch.slices(result, self._batch_size)
        assert self._slices is not None
        batch = next(self._slices, None)
        if batch is None:
            return None
        return self._emit(batch)


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


class StreamingExecution:
    """A pipeline run exposed batch by batch.

    ``stats`` is live: it reflects the work done so far, and — once the
    consumer stops (exhaustion *or* abandoning the generator) — the work
    that was ever done.  An abandoned stream closes the pipeline, so row
    groups never pulled are never fetched or billed.
    """

    def __init__(self, plan: PlanNode, root: PhysicalOperator, stats: QueryStats):
        self.plan = plan
        self.stats = stats
        self.batches_emitted = 0
        self._root = root

    def batches(self) -> Iterator[TableData]:
        root = self._root
        root.open()
        try:
            while True:
                batch = root.next_batch()
                if batch is None:
                    break
                self.batches_emitted += 1
                self.stats.rows_produced += batch.num_rows
                yield batch.data
        finally:
            root.close()

    def profile(self) -> OperatorProfile:
        """Per-operator profile of the work done so far (or ever, once the
        stream is exhausted or abandoned)."""
        return _build_profile(self._root)


class QueryExecutor:
    """Executes logical plans against a :class:`DataSource`.

    ``batch_size`` caps the rows per record batch flowing between
    streaming operators; results are bit-identical for any value ≥ 1.
    ``workers`` enables morsel-driven parallel scans when > 1 (results,
    billing, and EXPLAIN ANALYZE stay bit-identical for any value); None
    reads the ``REPRO_WORKERS`` environment variable, defaulting to 1.
    """

    def __init__(
        self,
        source: DataSource,
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
        self._source = source
        self._batch_size = batch_size
        self._workers = max(1, workers)

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def execute(self, plan: PlanNode, analyze: bool = False) -> QueryResult:
        """Run ``plan`` to completion; with ``analyze`` also build the
        per-operator profile tree that EXPLAIN ANALYZE renders."""
        stats = QueryStats()
        root = build_pipeline(
            plan, self._source, stats, self._batch_size, self._workers
        )
        stats.operators = root.count_operators()
        pieces: list[TableData] = []
        root.open()
        try:
            while True:
                batch = root.next_batch()
                if batch is None:
                    break
                pieces.append(batch.data)
        finally:
            root.close()
        if pieces:
            # The result boundary: dictionary-coded VARCHAR columns become
            # strings here, for the rows that survived, and never later.
            data = TableData.concat_all(pieces).materialize()
        else:
            data = TableData.empty(plan.output_schema())
        stats.rows_produced = data.num_rows
        profile = _build_profile(root) if analyze else None
        return QueryResult(data, stats, profile)

    def execute_stream(self, plan: PlanNode) -> StreamingExecution:
        """Set up ``plan`` for batch-at-a-time consumption.

        Nothing runs until the returned execution's :meth:`~
        StreamingExecution.batches` generator is pulled.
        """
        stats = QueryStats()
        root = build_pipeline(
            plan, self._source, stats, self._batch_size, self._workers
        )
        stats.operators = root.count_operators()
        return StreamingExecution(plan, root, stats)


def attach_stream(split, batches: Iterator[TableData]) -> None:
    """Wire the CF workers' result in as a batch stream."""
    split.view.data = BatchStream(batches, split.sub.output_schema())
