"""Batch query optimization: shared scans for non-urgent queries.

The paper's conclusion calls out that delaying non-urgent queries
"provides opportunities for batch query optimization".  This module
implements the classic instance of that opportunity — **scan sharing**:
when several queued queries read the same base table, the batch fetches
each table once (the union of the queries' column projections) and every
query is evaluated against the shared in-memory copy.

Correctness relies on a property of the engine's scans: zone-map
``ranges`` are pruning *hints* only — every scan re-applies its exact
``residual`` predicate row by row — so serving a scan from an unpruned
shared superset of its columns cannot change its result.

Each member is billed for the bytes *it* scans (§3.2), as if alone: a
shared table yields it one granule per row group its own ``ranges`` keep,
billed that group's chunks of its columns (and the file's footer on the
first), with the group's pre-residual rows and the file's skip count.
What sharing reduces is the provider-side work (GETs, pool traffic and
bytes fetched once), the batch-optimization dividend the paper anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.executor import QueryExecutor, QueryResult, QueryStats
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.plan import PlanNode, Scan, plan_scans
from repro.engine.source import DataSource, SourceResult
from repro.storage.cache import BufferPool
from repro.storage.file_format import PixelsReader
from repro.storage.object_store import ObjectStore, ScanCounters
from repro.storage.table import TableData, TableReader


@dataclass
class SharedScanStats:
    """What the batch saved."""

    tables_shared: int = 0
    shared_bytes_scanned: int = 0
    #: What the members would have scanned alone (each reports its solo
    #: bytes exactly) minus what the batch scanned.
    bytes_saved: int = 0


@dataclass
class BatchExecution:
    """Results of a shared-scan batch: one entry per input plan."""

    results: list[QueryResult] = field(default_factory=list)
    shared_stats: SharedScanStats = field(default_factory=SharedScanStats)
    combined: QueryStats = field(default_factory=QueryStats)


@dataclass
class _SharedFile:
    """One file of a shared table as the batch fetched it."""

    reader: PixelsReader  # its footer only: every read is already done
    footer_bytes: int
    groups: list[TableData]  # every row group, the batch's union columns


def _fetch_shared(
    store: ObjectStore, scan: Scan, columns: list[str], cache: "BufferPool | None"
) -> tuple[list[_SharedFile], int]:
    """Read ``columns`` of every row group of ``scan``'s table once; returns
    the files and the logical bytes the fetch scanned."""
    table = scan.table
    metrics = store.metrics
    files: list[_SharedFile] = []
    fetched = 0
    for key in TableReader(store, table.bucket, table.prefix).file_keys():
        before = metrics.snapshot()
        reader = PixelsReader(store, table.bucket, key, cache=cache)
        footer_bytes = ScanCounters.of(metrics.delta(before), 0).bytes_scanned
        groups = [TableData(vectors) for vectors in reader.iter_groups(columns)]
        fetched += ScanCounters.of(metrics.delta(before), 0).bytes_scanned
        files.append(_SharedFile(reader, footer_bytes, groups))
    return files, fetched


def _member_granules(node: Scan, files: list[_SharedFile]) -> Iterator[SourceResult]:
    """``node``'s scan served from the shared files, granule for granule
    what :meth:`~repro.engine.source.ObjectStoreSource.scan_batches` would
    yield alone (see the module docstring), without its GETs."""
    base_columns = [base for _, base in node.columns]
    names = {base: out for out, base in node.columns}
    residual = compile_expr(node.residual) if node.residual is not None else None
    for shared in files:
        row_groups = shared.reader.footer.row_groups
        surviving = shared.reader.surviving_group_indexes(node.ranges or None)
        pending = shared.footer_bytes
        skipped = len(row_groups) - len(surviving)
        for index in surviving:
            group = row_groups[index]
            data = shared.groups[index].select(base_columns).rename(names)
            if residual is not None and data.num_rows:
                data = data.filter(mask_from_predicate(residual(data)))
            yield SourceResult(
                data,
                0.0,
                group.num_rows,
                bytes_scanned=pending
                + sum(group.chunks[column].length for column in base_columns),
                row_groups_skipped=skipped,
            )
            pending = skipped = 0
        if not surviving:
            yield SourceResult(
                TableData.empty(node.output_schema()),
                0.0,
                0,
                bytes_scanned=pending,
                row_groups_skipped=skipped,
            )


class _SharedSource:
    """A DataSource serving scans from pre-fetched shared tables, falling
    back to the object store for tables the batch did not share."""

    def __init__(
        self, shared: dict[tuple[str, str], list[_SharedFile]], fallback: DataSource
    ) -> None:
        self._shared = shared
        self._fallback = fallback

    def scan_batches(self, node: Scan) -> Iterator[SourceResult]:
        files = self._shared.get((node.schema_name, node.table.name))
        if files is not None:
            return _member_granules(node, files)
        return self._fallback.scan_batches(node)


def union_columns(plans: list[PlanNode]) -> dict[tuple[str, str], set[str]]:
    """Per (schema, table): the union of base columns any plan scans."""
    needed: dict[tuple[str, str], set[str]] = {}
    for plan in plans:
        for scan in plan_scans(plan):
            key = (scan.schema_name, scan.table.name)
            needed.setdefault(key, set()).update(
                base for _, base in scan.columns
            )
    return needed


def execute_shared_batch(
    plans: list[PlanNode],
    store: ObjectStore,
    fallback: DataSource,
    cache: "BufferPool | None" = None,
) -> BatchExecution:
    """Execute ``plans`` with each base table fetched exactly once.

    Only tables referenced by **two or more** plans are shared (sharing a
    single-reader table would just move bytes around); the rest scan the
    object store directly through ``fallback``.  ``cache`` (the VM tier's
    buffer pool, when batches run on VMs) serves the shared fetches.
    """
    needed = union_columns(plans)
    reference_counts: dict[tuple[str, str], int] = {}
    for plan in plans:
        for key in {
            (scan.schema_name, scan.table.name) for scan in plan_scans(plan)
        }:
            reference_counts[key] = reference_counts.get(key, 0) + 1

    before = store.metrics.snapshot()
    shared: dict[tuple[str, str], list[_SharedFile]] = {}
    stats = SharedScanStats()
    table_bytes: dict[tuple[str, str], int] = {}
    for plan in plans:
        for scan in plan_scans(plan):
            key = (scan.schema_name, scan.table.name)
            if reference_counts.get(key, 0) < 2 or key in table_bytes:
                continue
            shared[key], table_bytes[key] = _fetch_shared(
                store, scan, sorted(needed[key]), cache
            )
            stats.tables_shared += 1
            stats.shared_bytes_scanned += table_bytes[key]

    source = _SharedSource(shared, fallback)
    executor = QueryExecutor(source)
    batch = BatchExecution(shared_stats=stats)
    for plan in plans:
        result = executor.execute(plan)
        batch.results.append(result)
        batch.combined.rows_scanned += result.stats.rows_scanned
        batch.combined.operators += result.stats.operators
    # The provider scanned each shared table once, plus what members read
    # of the tables the batch did not share — not the members' bills.
    batch.combined.bytes_scanned = ScanCounters.of(
        store.metrics.delta(before), 0
    ).bytes_scanned
    stats.bytes_saved = (
        sum(result.stats.bytes_scanned for result in batch.results)
        - batch.combined.bytes_scanned
    )
    return batch

