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
from typing import Iterator, Protocol

from repro.errors import ExecutionError
from repro.engine.expr import compile_expr, mask_from_predicate
from repro.engine.plan import Scan
from repro.storage.cache import BufferPool
from repro.storage.file_format import FileFooter, PixelsReader, Selection
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


@dataclass(frozen=True)
class Morsel:
    """One unit of parallel scan work: a single row group of one file.

    ``group_index`` is None for the degenerate "empty file" morsel (every
    group pruned, or a file with no rows) — it exists only to carry the
    footer accounting and skip count that the sequential path surfaces.
    ``footer_delta`` is attached to a file's *first* morsel: the footer
    read happens once on the coordinator during enumeration, and its
    counters must land on exactly one granule, like the sequential path.
    """

    file_key: str
    group_index: int | None
    footer: FileFooter
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
    """Reads base tables from the object store via :class:`TableReader`.

    Args:
        store: The backing object store.
        keys: Optional restriction to specific file keys — this is how
            Turbo assigns distinct file subsets of one table to parallel
            workers.
        cache: Optional buffer pool shared by this worker tier.  The
            coordinator passes its long-lived pool for VM execution (warm
            across queries) and a fresh pool per CF invocation (functions
            cold-start).  Caching never changes ``bytes_scanned`` — the
            billing basis is logical bytes either way.
    """

    def __init__(
        self,
        store: ObjectStore,
        keys: list[str] | None = None,
        cache: "BufferPool | None" = None,
    ) -> None:
        self._store = store
        self._keys = keys
        self._cache = cache

    def scan_batches(self, node: Scan) -> Iterator[SourceResult]:
        """Stream the scan one row group at a time, fetching lazily.

        Footers are read when a file is first touched; a row group's
        chunks are fetched only when the pipeline pulls that granule.  A
        consumer that abandons the iterator (LIMIT satisfied) therefore
        never pays — in GETs, bytes, or billed logical bytes — for the row
        groups and files it did not reach.  Per-granule accounting is the
        metrics delta since the previous yield, so summing the yielded
        counters reproduces a whole ``TableReader.scan``'s totals exactly
        when the stream is drained in full.
        """
        reader = self._table_reader(node)
        base_columns = [base for _, base in node.columns]
        ranges = node.ranges or None
        selection = _residual_selection(node)
        file_keys = self._keys if self._keys is not None else reader.file_keys()
        metrics = self._store.metrics
        for key in file_keys:
            # Deltas are snapshotted tightly around each fetch (not across
            # yields) so work other code does between pulls is never
            # attributed to this scan.
            before = metrics.snapshot()
            file_reader = PixelsReader(
                self._store, node.table.bucket, key, cache=self._cache
            )
            pending = metrics.delta(before)  # the footer read
            footer = file_reader.footer
            surviving = file_reader.surviving_group_indexes(ranges)
            pending_skipped = len(footer.row_groups) - len(surviving)
            groups = file_reader.iter_groups(base_columns, ranges, selection)
            for index in surviving:
                before = metrics.snapshot()
                vectors = next(groups)
                delta = metrics.delta(before)
                delta.merge(pending)
                pending = StorageMetrics()
                yield self._granule(
                    self._rename(TableData(vectors), node),
                    delta,
                    pending_skipped,
                    footer.row_groups[index].num_rows,
                )
                pending_skipped = 0
            if not surviving:
                # Fully pruned (or empty) file: still surface the footer
                # read and the skip count so accounting stays exact.
                yield self._granule(
                    TableData.empty(node.output_schema()), pending, pending_skipped, 0
                )

    # -- morsel-driven parallel scan path -----------------------------------

    def scan_batches_parallel(
        self, node: Scan, workers: int
    ) -> Iterator[SourceResult]:
        """:meth:`scan_batches` with row groups read on ``workers`` threads.

        Reads wait on GETs, which threads overlap.  The morsels are
        enumerated up front (footers read and charged on the calling
        thread); each is then read through a private :class:`StoreView`,
        at most ``workers`` morsels ahead of the consumer.  Granules are
        yielded in morsel order and each view's metrics are merged into the
        store as its granule is yielded, so the granules, their counters
        and the store's totals equal the sequential stream's drained in
        full.  This path is not lazy about row groups, so it suits only a
        consumer that drains the scan (a pipeline breaker).
        """

        def read(morsel: Morsel) -> tuple[SourceResult, StoreView]:
            view = StoreView(self._store)
            return self.read_morsel(node, morsel, view), view

        pool = ThreadPoolExecutor(max_workers=workers)
        ahead: deque[Future] = deque()
        try:
            for morsel in self.morsel_granules(node):
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

    def morsel_granules(self, node: Scan) -> list[Morsel]:
        """Enumerate the scan as row-group morsels (on the calling thread).

        Footers are read here, sequentially, through the *real* store and
        the configured pool — byte-for-byte the same footer GET/cache
        accounting as the sequential path, charged to the shared metrics
        immediately.  The per-file footer delta is captured and attached
        to that file's first morsel so operator-level counters also match.
        """
        ranges = node.ranges or None
        reader = self._table_reader(node)
        file_keys = self._keys if self._keys is not None else reader.file_keys()
        metrics = self._store.metrics
        morsels: list[Morsel] = []
        for key in file_keys:
            before = metrics.snapshot()
            file_reader = PixelsReader(
                self._store, node.table.bucket, key, cache=self._cache
            )
            footer_delta: StorageMetrics | None = metrics.delta(before)
            surviving = file_reader.surviving_group_indexes(ranges)
            skipped = len(file_reader.footer.row_groups) - len(surviving)
            if not surviving:
                morsels.append(
                    Morsel(key, None, file_reader.footer, footer_delta, skipped)
                )
                continue
            for group_index in surviving:
                morsels.append(
                    Morsel(
                        key, group_index, file_reader.footer, footer_delta, skipped
                    )
                )
                footer_delta = None
                skipped = 0
        return morsels

    def read_morsel(self, node: Scan, morsel: Morsel, view: StoreView) -> SourceResult:
        """Materialize one morsel through ``view`` (on a reader thread).

        Chunk GETs and pool hit/miss accounting land in ``view.metrics``
        only; the caller merges views into the shared store metrics in
        morsel order.  The returned granule's counters (chunks + any
        attached footer delta) equal what the sequential stream would have
        yielded for the same row group.
        """
        delta = StorageMetrics()
        if morsel.footer_delta is not None:
            delta.merge(morsel.footer_delta)
        if morsel.group_index is None:
            return self._granule(
                TableData.empty(node.output_schema()),
                delta,
                morsel.row_groups_skipped,
                0,
            )
        file_reader = PixelsReader(
            view,
            node.table.bucket,
            morsel.file_key,
            cache=self._cache,
            footer=morsel.footer,
        )
        before = view.metrics.snapshot()
        vectors = file_reader.read_group(
            morsel.group_index,
            [base for _, base in node.columns],
            _residual_selection(node),
        )
        delta.merge(view.metrics.delta(before))
        return self._granule(
            self._rename(TableData(vectors), node),
            delta,
            morsel.row_groups_skipped,
            morsel.footer.row_groups[morsel.group_index].num_rows,
        )

    def _table_reader(self, node: Scan) -> TableReader:
        if not node.table.bucket or not node.table.prefix:
            raise ExecutionError(
                f"table {node.table.name!r} has no storage location"
            )
        return TableReader(
            self._store, node.table.bucket, node.table.prefix, cache=self._cache
        )

    @staticmethod
    def _rename(data: TableData, node: Scan) -> TableData:
        return data.rename({base: out for out, base in node.columns}).select(
            [out for out, _ in node.columns]
        )

    def _granule(
        self, data: TableData, delta, skipped: int, rows_scanned: int
    ) -> SourceResult:
        # Latency from the granule's integer counts, not ``delta.read_time_s``:
        # the sequential path's delta is a difference of the store's running
        # float total, the morsel path's a sum from zero, and the two differ
        # in the last bits.
        return SourceResult.of(
            delta,
            skipped,
            data=data,
            latency_s=self._store.profile.read_latency(
                delta.get_requests, delta.bytes_read
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
