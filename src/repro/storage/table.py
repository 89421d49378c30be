"""Table-level reading and writing over the columnar format.

A table is a set of Pixels files under one object-store prefix.
:class:`TableWriter` partitions rows into files and row groups;
:class:`TableReader` scans with projection and zone-map predicate push-down
and reports the bytes it actually read (the billing basis).

:class:`TableData` is the in-memory form — a dict of equal-length
:class:`ColumnVector` — used both here and throughout the query engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import re

from repro.errors import NoSuchColumnError
from repro.storage.cache import BufferPool
from repro.storage.file_format import PixelsReader, PixelsWriter
from repro.storage.object_store import ObjectStore, ScanCounters
from repro.storage.types import ColumnVector, DataType


def _natural_key(key: str) -> tuple:
    """Sort key treating digit runs numerically (part-2 before part-10)."""
    return tuple(
        int(part) if part.isdigit() else part for part in re.split(r"(\d+)", key)
    )


@dataclass
class TableData:
    """In-memory columnar table: ordered columns of equal length."""

    columns: dict[str, ColumnVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(vector) for vector in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged table: column lengths {lengths}")

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def schema(self) -> list[tuple[str, DataType]]:
        return [(name, vector.dtype) for name, vector in self.columns.items()]

    def column(self, name: str) -> ColumnVector:
        try:
            return self.columns[name]
        except KeyError:
            raise NoSuchColumnError(f"no column {name!r}") from None

    def select(self, names: list[str]) -> "TableData":
        """Project to ``names``, preserving the given order."""
        return TableData({name: self.column(name) for name in names})

    def filter(self, mask: np.ndarray) -> "TableData":
        return TableData(
            {name: vector.filter(mask) for name, vector in self.columns.items()}
        )

    def take(self, indices: np.ndarray) -> "TableData":
        return TableData(
            {name: vector.take(indices) for name, vector in self.columns.items()}
        )

    def slice(self, start: int, stop: int) -> "TableData":
        return TableData(
            {name: vector.slice(start, stop) for name, vector in self.columns.items()}
        )

    def concat(self, other: "TableData") -> "TableData":
        return TableData.concat_all([self, other])

    @staticmethod
    def concat_all(tables: "list[TableData]") -> "TableData":
        """Concatenate many tables in one pass (schemas must match).

        Each output column is built with a single allocation via
        :meth:`ColumnVector.concat_all`, so merging the pieces of a
        multi-file scan is linear in total rows.
        """
        if not tables:
            return TableData({})
        first = tables[0]
        for table in tables[1:]:
            if table.column_names != first.column_names:
                raise ValueError("cannot concat tables with different columns")
        if len(tables) == 1:
            return first
        return TableData(
            {
                name: ColumnVector.concat_all(
                    [table.columns[name] for table in tables]
                )
                for name in first.columns
            }
        )

    def materialize(self) -> "TableData":
        """Every coded column as a plain one (:meth:`ColumnVector.materialize`)."""
        if all(vector.codes is None for vector in self.columns.values()):
            return self
        return TableData(
            {name: vector.materialize() for name, vector in self.columns.items()}
        )

    def rename(self, mapping: dict[str, str]) -> "TableData":
        """Return a copy with columns renamed per ``mapping``."""
        return TableData(
            {mapping.get(name, name): vector for name, vector in self.columns.items()}
        )

    def to_rows(self) -> list[tuple]:
        """Row-major view (None for NULLs) — for tests and result display."""
        values = [vector.to_values() for vector in self.columns.values()]
        return list(zip(*values)) if values else []

    def nbytes(self) -> int:
        return sum(vector.nbytes() for vector in self.columns.values())

    @staticmethod
    def from_rows(
        schema: list[tuple[str, DataType]], rows: list[tuple]
    ) -> "TableData":
        """Build from row-major data (None entries become NULLs)."""
        columns: dict[str, ColumnVector] = {}
        for index, (name, dtype) in enumerate(schema):
            columns[name] = ColumnVector.from_values(
                dtype, [row[index] for row in rows]
            )
        return TableData(columns)

    @staticmethod
    def empty(schema: list[tuple[str, DataType]]) -> "TableData":
        return TableData(
            {
                name: ColumnVector(dtype, np.empty(0, dtype=dtype.numpy_dtype))
                for name, dtype in schema
            }
        )


class TableWriter:
    """Writes a :class:`TableData` to object storage as Pixels files.

    Args:
        store: Destination object store.
        bucket: Destination bucket (must exist).
        prefix: Key prefix; files are named ``{prefix}/part-{n}.pxl``.
        rows_per_file: Split point between files (a table bigger than this
            becomes multiple files, which is what lets scans parallelize
            across workers).
        rows_per_group: Row-group size within a file (the zone-map/skipping
            granularity).
    """

    def __init__(
        self,
        store: ObjectStore,
        bucket: str,
        prefix: str,
        rows_per_file: int = 65536,
        rows_per_group: int = 8192,
    ) -> None:
        if rows_per_file <= 0 or rows_per_group <= 0:
            raise ValueError("rows_per_file and rows_per_group must be positive")
        self._store = store
        self._bucket = bucket
        self._prefix = prefix.rstrip("/")
        self._rows_per_file = rows_per_file
        self._rows_per_group = rows_per_group

    def write(self, table: TableData) -> list[str]:
        """Write ``table``; returns the keys of the files produced."""
        schema = table.schema()
        if not schema:
            raise ValueError("cannot write a table with no columns")
        keys: list[str] = []
        total = table.num_rows
        file_index = 0
        start = 0
        while start < total or (total == 0 and file_index == 0):
            stop = min(start + self._rows_per_file, total)
            key = f"{self._prefix}/part-{file_index}.pxl"
            writer = PixelsWriter(self._store, self._bucket, key, schema)
            group_start = start
            while group_start < stop:
                group_stop = min(group_start + self._rows_per_group, stop)
                piece = table.slice(group_start, group_stop)
                writer.write_row_group(piece.columns)
                group_start = group_stop
            if total == 0:
                writer.write_row_group(TableData.empty(schema).columns)
            writer.close()
            keys.append(key)
            file_index += 1
            start = stop
            if total == 0:
                break
        return keys


@dataclass
class ScanResult(ScanCounters):
    """What a table scan produced and what it cost.

    The counters are :class:`~repro.storage.object_store.ScanCounters`,
    taken from the store's accounting delta over exactly this scan.
    ``bytes_scanned`` is the *logical* byte count (footers + needed column
    chunks) — the $/TB-scan billing basis.  It is identical whether the
    bytes came from the object store or a buffer pool; caching and
    range-GET coalescing only reduce ``latency_s`` and ``get_requests``.
    """

    data: TableData
    latency_s: float


class TableReader:
    """Scans a table prefix with projection and predicate push-down.

    Args:
        store: The backing object store.
        bucket: Bucket holding the table's files.
        prefix: Key prefix of the table.
        cache: Optional buffer pool (footers + column chunks).  Pass the
            worker tier's shared pool for warm scans; None reads every
            byte from the store.
    """

    def __init__(
        self,
        store: ObjectStore,
        bucket: str,
        prefix: str,
        cache: "BufferPool | None" = None,
    ) -> None:
        self._store = store
        self._bucket = bucket
        self._prefix = prefix.rstrip("/")
        self._cache = cache

    def file_keys(self) -> list[str]:
        """All Pixels files belonging to this table, in natural part order.

        Plain lexicographic order would interleave ``part-10`` before
        ``part-2`` once a table exceeds ten files, making scan order
        diverge from write order; the numeric-aware sort keeps multi-file
        scans deterministic and write-ordered.
        """
        keys = [
            key
            for key in self._store.list_keys(self._bucket, self._prefix + "/")
            if key.endswith(".pxl")
        ]
        return sorted(keys, key=_natural_key)

    def scan(
        self,
        columns: list[str] | None = None,
        ranges: dict[str, tuple[object | None, object | None]] | None = None,
        keys: list[str] | None = None,
    ) -> ScanResult:
        """Scan (a subset of) the table's files.

        Args:
            columns: Projection; None reads every column.
            ranges: Zone-map ranges per column for row-group skipping.
            keys: Restrict to these file keys (how Turbo splits a scan
                across workers); None scans all files.

        Returns:
            A :class:`ScanResult` whose ``bytes_scanned`` and ``latency_s``
            are deltas of the object-store accounting for exactly this scan.
        """
        before = self._store.metrics.snapshot()
        file_keys = keys if keys is not None else self.file_keys()
        pieces: list[TableData] = []
        skipped = 0
        for key in file_keys:
            reader = PixelsReader(self._store, self._bucket, key, cache=self._cache)
            skipped += len(reader.footer.row_groups) - len(
                reader.surviving_group_indexes(ranges)
            )
            vectors = reader.read(columns=columns, ranges=ranges)
            pieces.append(TableData(vectors))
        merged = TableData.concat_all(pieces)
        delta = self._store.metrics.delta(before)
        return ScanResult.of(
            delta, skipped, data=merged, latency_s=delta.read_time_s
        )
