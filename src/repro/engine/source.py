"""Data sources: where Scan leaves get their bytes.

The executor is storage-agnostic behind :class:`DataSource`.  Production
uses :class:`ObjectStoreSource` (the accounted S3-like store, which is what
makes $/TB-scan billing real); tests and CF materialized views use
:class:`InMemorySource`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Protocol

from repro.errors import ExecutionError
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.plan import Scan
from repro.storage.cache import BufferPool
from repro.storage.file_format import PixelsReader, Selection
from repro.storage.object_store import ObjectStore, ScanCounters, StorageMetrics, StoreView
from repro.storage.table import TableData, TableReader


@dataclass
class SourceResult(ScanCounters):
    """A scan's payload plus its cost accounting.

    ``data`` holds only the rows that satisfy the scan's residual;
    ``rows_scanned`` is the row count *before* it (what the cost model and
    the Scan operator's ``rows_in`` are built on), so it has no default: a
    source that forgets it must fail, not report zero.
    The counters are :class:`~repro.storage.object_store.ScanCounters`,
    the same record :class:`~repro.engine.executor.QueryStats` sums them
    into, so they survive the executor boundary (sources without a
    storage layer leave the request and cache counters at zero).
    """

    data: TableData
    latency_s: float
    rows_scanned: int


class Morsel(NamedTuple):
    """One unit of scan work: a single row group of one open file.

    ``reader`` is the file's reader, opened on the enumerating thread
    through the real store and pool.  ``group_index`` is None for the
    degenerate "empty file" morsel (every group pruned, or a file with no
    rows): it exists only to carry the footer accounting and skip count.
    ``footer_delta`` (the footer read's accounting) and
    ``row_groups_skipped`` ride on a file's *first* morsel only, so they
    land on exactly one granule; later morsels carry None and 0.
    """

    file_key: str
    reader: PixelsReader
    group_index: int | None
    footer_delta: StorageMetrics | None
    row_groups_skipped: int


def _residual_selection(node: Scan) -> Selection | None:
    """The scan's residual as a reader :data:`Selection` over base column
    names (the residual itself references the qualified output names)."""
    if node.residual is None:
        return None
    residual = compile_expr(node.residual)
    referenced = node.residual.references()
    out_names = {base: out for out, base in node.columns}
    # A reference-free residual (``WHERE 1 = 0``) evaluated over no column
    # yields a mask of length 0, which is vacuously all-true: always test a
    # column, so the constant broadcasts to the group's row count.
    tested = [
        base for base, out in out_names.items() if out in referenced
    ] or [node.columns[0][1]]

    def predicate(vectors):
        return mask_from_predicate(
            residual(TableData({out_names[base]: v for base, v in vectors.items()}))
        )

    return tested, predicate


class DataSource(Protocol):
    """Anything that can materialize a Scan leaf."""

    def scan_batches(self, node: Scan) -> Iterator[SourceResult]:
        """Stream the scan's projection (zone-map ranges applied, columns
        under the scan's *qualified* output names) as bounded granules
        that hold only rows satisfying the scan's ``residual`` — the source
        is the one place that predicate is applied.

        Each yielded :class:`SourceResult` carries one granule of rows
        (row-group granularity for object-store scans) plus the cost
        accounting *delta* for producing exactly that granule, so a
        consumer that stops iterating early is only charged for what was
        actually fetched.  Sources without a natural granule yield the
        whole scan as one.
        """
        ...


class ObjectStoreSource:
    """Reads base tables from the object store, one row group per granule.

    :meth:`morsels` cuts a scan into row-group morsels, and both scan paths
    read those morsels: :meth:`scan_batches` lazily on the calling thread,
    :meth:`scan_batches_parallel` on reader threads, a bounded number
    ahead.  One :meth:`_granule` turns each morsel into its
    :class:`SourceResult`, so the two paths yield the same granules.

    Args:
        store: The backing object store.
        cache: Optional buffer pool shared by this worker tier.  The
            coordinator passes its long-lived pool for VM execution (warm
            across queries) and a fresh pool per CF invocation (functions
            cold-start).  Caching never changes ``bytes_scanned`` — the
            billing basis is logical bytes either way.
    """

    def __init__(self, store: ObjectStore, cache: "BufferPool | None" = None) -> None:
        self._store = store
        self._cache = cache

    def morsels(self, node: Scan) -> Iterator[Morsel]:
        """Enumerate the scan as row-group morsels, opening each file (its
        footer read through the real store and pool, and charged to the
        shared metrics) only when the enumeration reaches it."""
        ranges = node.ranges or None
        metrics = self._store.metrics
        for key in self._table_reader(node).file_keys():
            before = metrics.snapshot()
            reader = PixelsReader(self._store, node.table.bucket, key, cache=self._cache)
            footer_delta = metrics.delta(before)
            surviving = reader.surviving_group_indexes(ranges)
            skipped = len(reader.footer.row_groups) - len(surviving)
            if not surviving:
                yield Morsel(key, reader, None, footer_delta, skipped)
                continue
            for index in surviving:
                yield Morsel(key, reader, index, footer_delta, skipped)
                footer_delta, skipped = None, 0

    def scan_batches(self, node: Scan) -> Iterator[SourceResult]:
        """Stream the scan one row group at a time, fetching lazily.

        Footers are read when a file is first touched; a row group's
        chunks are fetched only when the pipeline pulls that granule.  A
        consumer that abandons the iterator (LIMIT satisfied) therefore
        never pays — in GETs, bytes, or billed logical bytes — for the row
        groups and files it did not reach.  Per-granule accounting is the
        metrics delta around each fetch, so summing the yielded counters
        reproduces a whole ``TableReader.scan``'s totals exactly when the
        stream is drained in full.
        """
        columns = [base for _, base in node.columns]
        ranges = node.ranges or None
        selection = _residual_selection(node)
        metrics = self._store.metrics
        reader = groups = None
        for morsel in self.morsels(node):
            if morsel.reader is not reader:
                reader = morsel.reader
                groups = reader.iter_groups(columns, ranges, selection)
            # Deltas are snapshotted tightly around each fetch (not across
            # yields) so work other code does between pulls is never
            # attributed to this scan.
            before = metrics.snapshot()
            vectors = None if morsel.group_index is None else next(groups)
            yield self._granule(node, morsel, vectors, metrics.delta(before))

    def scan_batches_parallel(
        self, node: Scan, workers: int
    ) -> Iterator[SourceResult]:
        """:meth:`scan_batches` with row groups read on ``workers`` threads.

        Reads wait on GETs, which threads overlap.  Each morsel is read
        through a private :class:`StoreView`, at most ``workers`` morsels
        ahead of the consumer; granules are yielded in morsel order and
        each view's metrics are merged into the store as its granule is
        yielded, so granules and store totals equal the sequential
        stream's drained in full.  Not lazy about row groups, this path
        suits only a consumer that drains the scan (a pipeline breaker).
        """
        columns = [base for _, base in node.columns]
        selection = _residual_selection(node)

        def read(morsel: Morsel) -> tuple[SourceResult, StoreView]:
            view = StoreView(self._store)
            vectors = None
            if morsel.group_index is not None:
                vectors = PixelsReader(
                    view,
                    node.table.bucket,
                    morsel.file_key,
                    cache=self._cache,
                    footer=morsel.reader.footer,
                ).read_group(morsel.group_index, columns, selection)
            # A copy: the footer delta merged into it must not reach the
            # view's metrics, which are merged into the store as well.
            return self._granule(node, morsel, vectors, view.metrics.snapshot()), view

        pool = ThreadPoolExecutor(max_workers=workers)
        ahead: deque[Future] = deque()
        try:
            for morsel in self.morsels(node):
                ahead.append(pool.submit(read, morsel))
                if len(ahead) > workers:
                    yield self._take(ahead.popleft())
            while ahead:
                yield self._take(ahead.popleft())
        finally:
            pool.shutdown(cancel_futures=True)

    def _take(self, future: Future) -> SourceResult:
        granule, view = future.result()
        self._store.metrics.merge(view.metrics)
        return granule

    def _table_reader(self, node: Scan) -> TableReader:
        if not node.table.bucket or not node.table.prefix:
            raise ExecutionError(
                f"table {node.table.name!r} has no storage location"
            )
        return TableReader(
            self._store, node.table.bucket, node.table.prefix, cache=self._cache
        )

    def _granule(
        self,
        node: Scan,
        morsel: Morsel,
        vectors: dict | None,
        fetched: StorageMetrics,
    ) -> SourceResult:
        """``morsel``'s granule: its rows (``vectors``, None for an empty
        file) and ``fetched``, the granule's own record of reading them,
        into which the morsel's footer delta is merged."""
        if morsel.footer_delta is not None:
            fetched.merge(morsel.footer_delta)
        if vectors is None:
            data, rows_scanned = TableData.empty(node.output_schema()), 0
        else:
            data = (
                TableData(vectors)
                .rename({base: out for out, base in node.columns})
                .select([out for out, _ in node.columns])
            )
            rows_scanned = morsel.reader.footer.row_groups[morsel.group_index].num_rows
        # Latency from the granule's integer counts, not ``read_time_s``:
        # the sequential path's delta is a difference of the store's running
        # float total, the read-ahead path's a sum from zero, and the two
        # differ in the last bits.
        return SourceResult.of(
            fetched,
            morsel.row_groups_skipped,
            data=data,
            latency_s=self._store.profile.read_latency(
                fetched.get_requests, fetched.bytes_read
            ),
            rows_scanned=rows_scanned,
        )


class InMemorySource:
    """Serves scans from in-memory tables keyed by (schema, table) name.

    ``bytes_scanned`` is the in-memory size of the projected columns, so
    cost-model tests behave consistently with the object-store source.
    """

    def __init__(self, tables: dict[tuple[str, str], TableData] | None = None) -> None:
        self._tables = dict(tables or {})

    def add_table(self, schema: str, table: str, data: TableData) -> None:
        self._tables[(schema, table)] = data

    def has_table(self, schema: str, table: str) -> bool:
        return (schema, table) in self._tables

    def scan_batches(self, node: Scan) -> Iterator[SourceResult]:
        """One granule: in-memory tables have no fetch cost to defer (the
        pipeline's scan operator re-slices it into record batches)."""
        key = (node.schema_name, node.table.name)
        if key not in self._tables:
            raise ExecutionError(f"no in-memory table {key}")
        data = self._tables[key]
        projected = data.select([base for _, base in node.columns]).rename(
            {base: out for out, base in node.columns}
        )
        kept = projected
        if node.residual is not None and projected.num_rows:
            mask = mask_from_predicate(compile_expr(node.residual)(projected))
            kept = projected.filter(mask)
        yield SourceResult(
            kept, 0.0, projected.num_rows, bytes_scanned=projected.nbytes()
        )
