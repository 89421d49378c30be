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
shared superset of its columns cannot change its result.  Per-query
user billing is unchanged (each query is still billed for the bytes *it*
scans, per §3.2); what sharing reduces is the provider-side work, which
is exactly the batch-optimization dividend the paper anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.executor import QueryExecutor, QueryResult, QueryStats
from repro.engine.plan import PlanNode, Scan, plan_scans
from repro.engine.source import DataSource, InMemorySource
from repro.storage.cache import BufferPool
from repro.storage.object_store import ObjectStore
from repro.storage.table import TableReader


@dataclass
class SharedScanStats:
    """What the batch saved."""

    tables_shared: int = 0
    shared_bytes_scanned: int = 0
    unshared_bytes_scanned: int = 0  # what N independent scans would read

    @property
    def bytes_saved(self) -> int:
        return max(self.unshared_bytes_scanned - self.shared_bytes_scanned, 0)


@dataclass
class BatchExecution:
    """Results of a shared-scan batch: one entry per input plan."""

    results: list[QueryResult] = field(default_factory=list)
    shared_stats: SharedScanStats = field(default_factory=SharedScanStats)
    combined: QueryStats = field(default_factory=QueryStats)


class _SharedSource:
    """A DataSource serving scans from pre-fetched shared tables, falling
    back to the object store for tables the batch did not share."""

    def __init__(
        self, shared: InMemorySource, fallback: DataSource
    ) -> None:
        self._shared = shared
        self._fallback = fallback

    def scan_batches(self, node: Scan):
        # Shared tables stream as one in-memory granule, everything else
        # keeps the fallback's laziness.
        if self._shared.has_table(node.schema_name, node.table.name):
            return self._shared.scan_batches(node)
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

    shared = InMemorySource()
    stats = SharedScanStats()
    table_bytes: dict[tuple[str, str], int] = {}
    for plan in plans:
        for scan in plan_scans(plan):
            key = (scan.schema_name, scan.table.name)
            if reference_counts.get(key, 0) < 2 or key in table_bytes:
                continue
            reader = TableReader(
                store, scan.table.bucket, scan.table.prefix, cache=cache
            )
            result = reader.scan(columns=sorted(needed[key]))
            shared.add_table(key[0], key[1], result.data)
            table_bytes[key] = result.bytes_scanned
            stats.tables_shared += 1
            stats.shared_bytes_scanned += result.bytes_scanned

    source = _SharedSource(shared, fallback)
    executor = QueryExecutor(source)
    batch = BatchExecution(shared_stats=stats)
    for plan in plans:
        result = executor.execute(plan)
        batch.results.append(result)
        batch.combined.rows_scanned += result.stats.rows_scanned
        batch.combined.operators += result.stats.operators
        # What this plan would have read on its own (for the savings line).
        for scan in plan_scans(plan):
            key = (scan.schema_name, scan.table.name)
            if key in table_bytes:
                # Approximate: the per-query share of the table's columns.
                fraction = len(scan.columns) / max(len(needed[key]), 1)
                batch.shared_stats.unshared_bytes_scanned += int(
                    table_bytes[key] * fraction
                )
        batch.combined.bytes_scanned += result.stats.bytes_scanned
    # The provider pays the shared fetch once; queries served from memory
    # report in-memory sizes, so replace the byte total with the real one.
    batch.combined.bytes_scanned = stats.shared_bytes_scanned + sum(
        result.stats.bytes_scanned
        for result, plan in zip(batch.results, plans)
        if not _fully_shared(plan, table_bytes)
    )
    return batch


def _fully_shared(plan: PlanNode, table_bytes: dict) -> bool:
    return all(
        (scan.schema_name, scan.table.name) in table_bytes
        for scan in plan_scans(plan)
    )
