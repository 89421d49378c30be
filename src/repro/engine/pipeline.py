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

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

from repro.errors import ExecutionError
from repro.engine.batch import BatchStream, RecordBatch
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.physical import (
    aggregate_supports_partial,
    execute_aggregate,
    execute_distinct,
    execute_hash_join,
    execute_limit,
    execute_semi_anti_join,
    execute_sort,
    execute_top_n,
    execute_union_all,
    final_aggregate,
    join_tables,
    partial_aggregate,
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
from repro.engine.source import DataSource, SingleGranuleSource
from repro.storage.table import TableData
from repro.storage.types import ColumnVector

# Virtual-time rates for per-operator EXPLAIN ANALYZE timing.  Aligned
# with the VM tier's modelled throughput (200 MB/s scan, 4M rows/s) so the
# numbers read like a plausible single-worker profile, but their real job
# is determinism: identical plans over identical data always produce
# identical timings.
VIRTUAL_SECONDS_PER_ROW = 2.5e-7
VIRTUAL_SECONDS_PER_SCANNED_BYTE = 5e-9
VIRTUAL_SECONDS_PER_BATCH = 1e-6

_SCAN_COUNTERS = (
    "bytes_scanned",
    "get_requests",
    "footer_gets",
    "chunk_gets",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "row_groups_skipped",
)


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
        # Source granules processed (row groups for object-store scans).
        # Under the morsel driver each worker instance counts its single
        # morsel; accumulated counts equal the sequential granule count, so
        # the value is worker-count invariant.
        self.morsels = 0
        self.scan_counters = dict.fromkeys(_SCAN_COUNTERS, 0)

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
            + self.scan_counters["bytes_scanned"] * VIRTUAL_SECONDS_PER_SCANNED_BYTE
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
    """

    def __init__(
        self, node: Scan, source: DataSource, stats, batch_size: int
    ) -> None:
        super().__init__(node, [])
        self._source = source
        self._stats = stats
        self._batch_size = batch_size
        self._granules: Iterator | None = None
        self._slices: Iterator[RecordBatch] | None = None

    def open(self) -> None:
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
        stats.bytes_scanned += granule.bytes_scanned
        stats.scan_latency_s += granule.latency_s
        stats.rows_scanned += granule.rows_scanned
        stats.get_requests += granule.get_requests
        stats.footer_gets += granule.footer_gets
        stats.chunk_gets += granule.chunk_gets
        stats.cache_hits += granule.cache_hits
        stats.cache_misses += granule.cache_misses
        stats.cache_evictions += granule.cache_evictions
        stats.row_groups_skipped += granule.row_groups_skipped
        counters = self.scan_counters
        counters["bytes_scanned"] += granule.bytes_scanned
        counters["get_requests"] += granule.get_requests
        counters["footer_gets"] += granule.footer_gets
        counters["chunk_gets"] += granule.chunk_gets
        counters["cache_hits"] += granule.cache_hits
        counters["cache_misses"] += granule.cache_misses
        counters["cache_evictions"] += granule.cache_evictions
        counters["row_groups_skipped"] += granule.row_groups_skipped

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
            from repro.engine.batch import approx_table_nbytes

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


# ---------------------------------------------------------------------------
# Morsel-driven parallel execution
# ---------------------------------------------------------------------------


class _LocalScanStats:
    """Private scan-stat sink for one morsel's pipeline instance.

    Mirrors exactly the fields :meth:`ScanOperator._account` touches on the
    shared query stats; the exchange merges these into the real stats in
    morsel order after the barrier, so totals equal the sequential run's.
    """

    def __init__(self) -> None:
        self.bytes_scanned = 0
        self.scan_latency_s = 0.0
        self.rows_scanned = 0
        self.get_requests = 0
        self.footer_gets = 0
        self.chunk_gets = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.row_groups_skipped = 0


class ExchangeOperator(PhysicalOperator):
    """Runs a streaming segment (Filter/Project chain over a Scan) as
    parallel per-morsel pipeline instances and re-emits their output in
    morsel order.

    Determinism is the contract: results, billed bytes, and per-operator
    counters are invariant to the worker count because

    * morsels are enumerated in file/row-group order and results are
      gathered with ``pool.map`` (order-preserving);
    * each worker reads through a private
      :class:`~repro.storage.object_store.StoreView` whose metrics are
      merged into the shared store in morsel order after the barrier;
    * per-operator counters are integer sums over per-morsel instances, and
      virtual time is linear in those integers, so the accumulated profile
      is bit-identical to the sequential one.

    The operator *impersonates* the segment root in the profile tree: its
    ``node`` is the segment's root plan node and its ``children`` are the
    children of a never-executed "accumulator" operator chain built over the
    same segment, into which worker-instance counters are folded.  EXPLAIN
    ANALYZE therefore sees the exact plan-shaped tree it would see
    sequentially.
    """

    def __init__(
        self,
        segment_plan: PlanNode,
        scan_node: Scan,
        source: DataSource,
        stats,
        batch_size: int,
        workers: int,
    ) -> None:
        # Building the chain has no side effects; it exists only to hold
        # accumulated counters in plan-tree shape.
        accumulator = build_pipeline(segment_plan, source, stats, batch_size)
        super().__init__(segment_plan, accumulator.children)
        self._accumulator = accumulator
        self._segment_plan = segment_plan
        self._scan_node = scan_node
        self._source = source
        self._stats = stats
        self._batch_size = batch_size
        self._workers = workers
        # Set by build_pipeline for partial->final breakers: maps a worker's
        # segment output to its partial table (e.g. partial aggregates).
        self.partial_fn: Callable[[TableData], TableData] | None = None
        self._batches: Iterator[RecordBatch] | None = None
        self._started = False

    def open(self) -> None:
        # The accumulator chain never executes; nothing to open.
        pass

    def close(self) -> None:
        self._batches = None

    def next_batch(self) -> RecordBatch | None:
        if not self._started:
            self._started = True
            self._run()
        assert self._batches is not None
        # No _emit: rows_out/batches_out were adopted from the accumulated
        # worker counters, which already equal the sequential values.
        return next(self._batches, None)

    def _run(self) -> None:
        morsels = self._source.morsel_granules(self._scan_node)
        if morsels:
            with ThreadPoolExecutor(max_workers=self._workers) as pool:
                results = list(pool.map(self._run_morsel, morsels))
        else:
            results = []
        views = []
        output: list[RecordBatch] = []
        for root, batches, local, view in results:
            self._merge_local_stats(local)
            views.append(view)
            self._accumulate(self._accumulator, root)
            output.extend(batches)
        self._source.merge_view_metrics(views)
        self._adopt_counters()
        self._batches = iter(output)

    def _run_morsel(self, morsel):
        view = self._source.store_view()
        granule = self._source.read_morsel(self._scan_node, morsel, view)
        local = _LocalScanStats()
        root = build_pipeline(
            self._segment_plan, SingleGranuleSource(granule), local, self._batch_size
        )
        root.open()
        batches: list[RecordBatch] = []
        try:
            while True:
                batch = root.next_batch()
                if batch is None:
                    break
                batches.append(batch)
        finally:
            root.close()
        if self.partial_fn is not None:
            if batches:
                table = TableData.concat_all([b.data for b in batches])
                partial = self.partial_fn(table)
                batches = [RecordBatch(partial)] if partial.num_rows else []
            else:
                # Empty morsel output contributes nothing; the merge side
                # reconstructs the empty-input result if *all* are empty.
                batches = []
        return root, batches, local, view

    def _merge_local_stats(self, local: _LocalScanStats) -> None:
        stats = self._stats
        stats.bytes_scanned += local.bytes_scanned
        stats.scan_latency_s += local.scan_latency_s
        stats.rows_scanned += local.rows_scanned
        stats.get_requests += local.get_requests
        stats.footer_gets += local.footer_gets
        stats.chunk_gets += local.chunk_gets
        stats.cache_hits += local.cache_hits
        stats.cache_misses += local.cache_misses
        stats.cache_evictions += local.cache_evictions
        stats.row_groups_skipped += local.row_groups_skipped

    @staticmethod
    def _accumulate(acc: PhysicalOperator, worker: PhysicalOperator) -> None:
        acc.rows_in += worker.rows_in
        acc.rows_out += worker.rows_out
        acc.batches_out += worker.batches_out
        acc.morsels += worker.morsels
        acc.peak_bytes = max(acc.peak_bytes, worker.peak_bytes)
        for key, value in worker.scan_counters.items():
            acc.scan_counters[key] += value
        for acc_child, worker_child in zip(acc.children, worker.children):
            ExchangeOperator._accumulate(acc_child, worker_child)

    def _adopt_counters(self) -> None:
        # Present the accumulated segment-root counters as this operator's
        # own, completing the impersonation.
        acc = self._accumulator
        self.rows_in = acc.rows_in
        self.rows_out = acc.rows_out
        self.batches_out = acc.batches_out
        self.morsels = acc.morsels
        self.peak_bytes = acc.peak_bytes
        self.scan_counters = acc.scan_counters


class MergeOperator(PhysicalOperator):
    """Final phase of a parallel pipeline breaker.

    Concatenates the per-morsel partial tables emitted by its
    :class:`ExchangeOperator` child (in morsel order) and runs the final
    kernel once — e.g. merging partial aggregates, or re-selecting the
    global top N from per-morsel candidates.  It impersonates the breaker
    plan node, with counters matching the sequential breaker's exactly.
    """

    def __init__(
        self,
        node: PlanNode,
        exchange: ExchangeOperator,
        batch_size: int,
        final_fn: Callable[[TableData], TableData],
        empty_fn: Callable[[], TableData],
    ) -> None:
        super().__init__(node, [exchange])
        self._batch_size = batch_size
        self._final_fn = final_fn
        self._empty_fn = empty_fn
        self._slices: Iterator[RecordBatch] | None = None
        self._computed = False

    def next_batch(self) -> RecordBatch | None:
        if not self._computed:
            self._computed = True
            (exchange,) = self.children
            pieces: list[TableData] = []
            while True:
                # Direct next_batch, not _pull: partial-table rows are an
                # implementation detail and must not pollute rows_in.
                batch = exchange.next_batch()
                if batch is None:
                    break
                pieces.append(batch.data)
            if pieces:
                result = self._final_fn(TableData.concat_all(pieces))
            else:
                result = self._empty_fn()
            # rows_in mirrors the sequential breaker: the segment's rows
            # (the exchange adopted the segment root's rows_out).
            self.rows_in = exchange.rows_out
            from repro.engine.batch import approx_table_nbytes

            self.peak_bytes = max(self.peak_bytes, approx_table_nbytes(result))
            self._slices = RecordBatch.slices(result, self._batch_size)
        assert self._slices is not None
        batch = next(self._slices, None)
        if batch is None:
            return None
        return self._emit(batch)


def _parallel_scan_leaf(plan: PlanNode) -> Scan | None:
    """The Scan at the bottom of a pure streaming segment, if any.

    A segment is parallelizable when it is a (possibly empty) chain of
    Filter/Project over a Scan: each morsel instance then produces output
    independent of every other morsel's rows.  Limits are deliberately
    excluded — parallelizing under a LIMIT would fetch row groups the
    sequential early-exit path never bills for.
    """
    node = plan
    while isinstance(node, (Filter, Project)):
        node = node.input
    return node if isinstance(node, Scan) else None


def _maybe_exchange(
    segment: PlanNode, source: DataSource, stats, batch_size: int, workers: int
) -> ExchangeOperator | None:
    """An exchange over ``segment`` when morsel parallelism applies."""
    if workers <= 1 or not hasattr(source, "morsel_granules"):
        return None
    scan = _parallel_scan_leaf(segment)
    if scan is None:
        return None
    return ExchangeOperator(segment, scan, source, stats, batch_size, workers)


def build_pipeline(
    plan: PlanNode, source: DataSource, stats, batch_size: int, workers: int = 1
) -> PhysicalOperator:
    """Lower a logical plan into its physical operator tree.

    The tree mirrors the plan node for node (EXPLAIN ANALYZE relies on
    this to zip the two trees).  Pipelines break exactly at the blocking
    operators; everything between two breaks streams in ``batch_size``
    batches.  ``stats`` is the shared :class:`~repro.engine.executor
    .QueryStats` the scan leaves account into as they fetch.

    With ``workers > 1`` (and a morsel-capable source), the streaming
    segment feeding each pipeline breaker runs as parallel per-morsel
    instances behind an :class:`ExchangeOperator`.  Breakers whose kernel
    decomposes exactly get a partial->final split (:class:`MergeOperator`);
    the rest gather the segment output — in morsel order, so every mode is
    bit-identical to the sequential plan.  The operator tree still mirrors
    the plan node for node: exchange and merge impersonate the nodes they
    replace.
    """
    if isinstance(plan, Scan):
        return ScanOperator(plan, source, stats, batch_size)
    if isinstance(plan, MaterializedView):
        return ViewOperator(plan, batch_size)
    if isinstance(plan, Filter):
        return FilterOperator(
            plan, [build_pipeline(plan.input, source, stats, batch_size, workers)]
        )
    if isinstance(plan, Project):
        return ProjectOperator(
            plan, [build_pipeline(plan.input, source, stats, batch_size, workers)]
        )
    if isinstance(plan, Limit):
        return LimitOperator(
            plan, [build_pipeline(plan.input, source, stats, batch_size, workers)]
        )
    if isinstance(plan, Sort):
        # Gather mode: global sort is order-sensitive, so workers stream
        # the segment and the coordinator runs the one sort kernel.
        child = _maybe_exchange(
            plan.input, source, stats, batch_size, workers
        ) or build_pipeline(plan.input, source, stats, batch_size, workers)
        return SortOperator(plan, [child], batch_size)
    if isinstance(plan, TopN):
        exchange = _maybe_exchange(plan.input, source, stats, batch_size, workers)
        if exchange is not None and plan.limit is not None:
            keys = [(key.column, key.ascending) for key in plan.keys]
            budget = plan.limit + plan.offset
            # Per-morsel top-(limit+offset) keeps every row the global
            # selection could need (ties included: execute_top_n retains
            # all boundary ties); the final pass re-selects exactly.
            exchange.partial_fn = lambda t: execute_top_n(t, keys, budget, 0)
            return MergeOperator(
                plan,
                exchange,
                batch_size,
                final_fn=lambda t: execute_top_n(t, keys, plan.limit, plan.offset),
                empty_fn=lambda: execute_top_n(
                    TableData.empty(plan.input.output_schema()),
                    keys,
                    plan.limit,
                    plan.offset,
                ),
            )
        child = exchange or build_pipeline(
            plan.input, source, stats, batch_size, workers
        )
        return TopNOperator(plan, [child], batch_size)
    if isinstance(plan, Aggregate):
        exchange = _maybe_exchange(plan.input, source, stats, batch_size, workers)
        if exchange is not None:
            input_types = dict(plan.input.output_schema())
            if aggregate_supports_partial(plan.aggregates, input_types):
                exchange.partial_fn = lambda t: partial_aggregate(
                    t, plan.group_keys, plan.aggregates
                )
                return MergeOperator(
                    plan,
                    exchange,
                    batch_size,
                    final_fn=lambda t: final_aggregate(
                        t, plan.group_keys, plan.aggregates
                    ),
                    empty_fn=lambda: execute_aggregate(
                        TableData.empty(plan.input.output_schema()),
                        plan.group_keys,
                        plan.aggregates,
                    ),
                )
            # Gather mode for order-sensitive kernels (DOUBLE SUM/AVG,
            # DISTINCT aggregates): workers scan/filter/project, the
            # coordinator aggregates exactly as the sequential plan would.
            return AggregateOperator(plan, [exchange], batch_size)
        return AggregateOperator(
            plan,
            [build_pipeline(plan.input, source, stats, batch_size, workers)],
            batch_size,
        )
    if isinstance(plan, Distinct):
        exchange = _maybe_exchange(plan.input, source, stats, batch_size, workers)
        if exchange is not None:
            exchange.partial_fn = execute_distinct
            return MergeOperator(
                plan,
                exchange,
                batch_size,
                final_fn=execute_distinct,
                empty_fn=lambda: execute_distinct(
                    TableData.empty(plan.input.output_schema())
                ),
            )
        return DistinctOperator(
            plan,
            [build_pipeline(plan.input, source, stats, batch_size, workers)],
            batch_size,
        )
    if isinstance(plan, HashJoin):
        children = []
        for side in (plan.left, plan.right):
            child = _maybe_exchange(
                side, source, stats, batch_size, workers
            ) or build_pipeline(side, source, stats, batch_size, workers)
            children.append(child)
        return HashJoinOperator(plan, children, batch_size)
    if isinstance(plan, UnionAllPlan):
        children = []
        for sub in plan.inputs:
            child = _maybe_exchange(
                sub, source, stats, batch_size, workers
            ) or build_pipeline(sub, source, stats, batch_size, workers)
            children.append(child)
        return UnionAllOperator(plan, children, batch_size)
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")
