"""Plan execution: a thin driver over the vectorized pipeline.

The executor lowers the logical plan into a tree of physical operators
(:mod:`repro.engine.pipeline`) and iterates the root operator's
``batches()`` generator until exhaustion, inside ``contextlib.closing`` so
that an early end or an error closes the whole tree.  It is deliberately
synchronous and deterministic — in Turbo, each VM or CF worker runs one
executor over its assigned plan fragment, and the simulation charges time
from the cost model using the statistics returned here (bytes scanned,
rows processed).

:meth:`QueryExecutor.execute_stream` exposes the same pipeline without the
final concatenation: batches flow out as they are produced, which is how
the Turbo coordinator merges CF fragment results incrementally instead of
waiting for whole fragments.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.pipeline import PhysicalOperator, build_pipeline
from repro.engine.plan import PlanNode
from repro.engine.source import DataSource
from repro.storage.object_store import ScanCounters
from repro.storage.table import TableData


@dataclass
class QueryStats(ScanCounters):
    """Execution accounting for one plan run.

    The :class:`~repro.storage.object_store.ScanCounters` (bytes scanned,
    GETs, pool traffic, ``row_groups_skipped``) are summed from each
    scan's :class:`~repro.engine.source.SourceResult`, so EXPLAIN ANALYZE
    and the metrics registry can report them per query without re-deriving
    from the store's global ``StorageMetrics``.  Because scans account
    granule by granule, a query that exits early (LIMIT satisfied) shows
    — and is billed for — only the row groups actually fetched.
    """

    scan_latency_s: float = 0.0
    rows_scanned: int = 0
    rows_produced: int = 0
    operators: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Fold in a *sibling* fragment's accounting.

        Every counter sums, including ``rows_produced``: sibling fragments
        (e.g. per-worker scans of disjoint file subsets) each produce a
        disjoint slice of the output, so the merged total is their sum.
        When a downstream stage (like the CF merge step) re-aggregates
        sibling outputs, callers set ``rows_produced`` to the final
        result's row count afterwards rather than merging the stages.
        """
        self.add(other)
        self.scan_latency_s += other.scan_latency_s
        self.rows_scanned += other.rows_scanned
        self.rows_produced += other.rows_produced
        self.operators += other.operators


@dataclass
class OperatorProfile(ScanCounters):
    """Per-operator actuals from one analyzed run (EXPLAIN ANALYZE).

    ``time_s`` is deterministic *virtual* time — modelled from the rows,
    bytes, and batches the operator processed, never the wall clock — and
    is cumulative over the operator's subtree, as are the
    :class:`~repro.storage.object_store.ScanCounters`; ``self_time_s`` is
    this operator's own share (the profiler builds flame graphs from selfs
    so grafted subtrees stay consistent).
    ``rows_in``/``batches``/``peak_bytes`` are per-operator: rows pulled
    from children, batches emitted, and the largest simultaneously-
    materialized output (a whole table for pipeline breakers, one batch
    for streaming operators).  The tree mirrors the plan tree node for
    node.
    """

    name: str
    rows_out: int
    time_s: float
    self_time_s: float = 0.0
    rows_in: int = 0
    batches: int = 0
    peak_bytes: int = 0
    # Source granules processed in this subtree (row groups for object-store
    # scans); cumulative like the storage counters, and invariant to the
    # morsel driver's worker count.
    morsels: int = 0
    children: list["OperatorProfile"] = field(default_factory=list)


@dataclass
class QueryResult:
    """Rows plus statistics; ``column_names``/``rows()`` are the public
    result-set view Pixels-Rover renders."""

    data: TableData
    stats: QueryStats = field(default_factory=QueryStats)
    profile: OperatorProfile | None = None

    @property
    def column_names(self) -> list[str]:
        return self.data.column_names

    @property
    def num_rows(self) -> int:
        return self.data.num_rows

    def rows(self) -> list[tuple]:
        return self.data.to_rows()


def _build_profile(op: PhysicalOperator) -> OperatorProfile:
    """Fold an executed operator tree into the EXPLAIN ANALYZE profile.

    Time and storage counters accumulate over the subtree (matching how
    a sampling profiler attributes inclusive time); the batch/row/peak
    counters stay per-operator.
    """
    children = [_build_profile(child) for child in op.children]
    self_time_s = op.own_virtual_seconds()
    time_s = self_time_s + sum(child.time_s for child in children)
    profile = OperatorProfile(
        name=type(op.node).__name__,
        rows_out=op.rows_out,
        time_s=time_s,
        self_time_s=self_time_s,
        rows_in=op.rows_in,
        batches=op.batches_out,
        peak_bytes=op.peak_bytes,
        morsels=op.morsels + sum(child.morsels for child in children),
        children=children,
    )
    profile.add(op.counters)
    for child in children:
        profile.add(child)
    return profile


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
        with closing(self._root.batches()) as batches:
            for batch in batches:
                self.batches_emitted += 1
                self.stats.rows_produced += batch.num_rows
                yield batch

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
        with closing(root.batches()) as batches:
            pieces = list(batches)
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
