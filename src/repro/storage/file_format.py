"""The Pixels-like columnar file format.

File layout (all little-endian)::

    "PIXL" | column-chunk bytes ... | footer JSON | footer length u32 | "PIXL"

The footer records the schema and, per row group, per column: byte offset,
length, encoding, and zone-map statistics.  Readers fetch the footer with
two small range-GETs and then fetch *only* the chunks the projection needs
from row groups the predicates cannot rule out — so the object-store
``bytes_read`` counter measures true bytes scanned.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import CorruptFileError, NoSuchColumnError
from repro.storage.cache import DEFAULT_COALESCE_GAP_BYTES, BufferPool
from repro.storage.columnar import (
    RLE_TYPES,
    ColumnChunkStats,
    Encoding,
    choose_encoding,
    compute_stats,
    decode_chunk,
    dict_limit,
    encode_chunk,
    run_boundaries,
    string_index,
)
from repro.storage.object_store import ObjectStore, StoreView
from repro.storage.types import ColumnVector, DataType

MAGIC = b"PIXL"
FORMAT_VERSION = 1

#: A row selection for the read path: the columns to decode first, and a
#: predicate from those vectors to the boolean mask of rows to keep.
Selection = tuple[
    list[str], Callable[[dict[str, ColumnVector]], np.ndarray]
]


@dataclass(frozen=True)
class ChunkMeta:
    """Footer entry for one column chunk."""

    column: str
    offset: int
    length: int
    encoding: Encoding
    stats: ColumnChunkStats

    def to_json(self) -> dict:
        return {
            "column": self.column,
            "offset": self.offset,
            "length": self.length,
            "encoding": self.encoding.value,
            "num_rows": self.stats.num_rows,
            "null_count": self.stats.null_count,
            "min": self.stats.min_value,
            "max": self.stats.max_value,
        }

    @staticmethod
    def from_json(payload: dict) -> "ChunkMeta":
        stats = ColumnChunkStats(
            num_rows=payload["num_rows"],
            null_count=payload["null_count"],
            min_value=payload["min"],
            max_value=payload["max"],
        )
        return ChunkMeta(
            column=payload["column"],
            offset=payload["offset"],
            length=payload["length"],
            encoding=Encoding(payload["encoding"]),
            stats=stats,
        )


@dataclass(frozen=True)
class RowGroupMeta:
    """Footer entry for one row group."""

    num_rows: int
    chunks: dict[str, ChunkMeta]

    def to_json(self) -> dict:
        return {
            "num_rows": self.num_rows,
            "chunks": [chunk.to_json() for chunk in self.chunks.values()],
        }

    @staticmethod
    def from_json(payload: dict) -> "RowGroupMeta":
        chunks = {
            entry["column"]: ChunkMeta.from_json(entry)
            for entry in payload["chunks"]
        }
        return RowGroupMeta(num_rows=payload["num_rows"], chunks=chunks)


@dataclass(frozen=True)
class FileFooter:
    """The file's complete metadata."""

    num_rows: int
    schema: list[tuple[str, DataType]]
    row_groups: list[RowGroupMeta]

    def to_bytes(self) -> bytes:
        payload = {
            "version": FORMAT_VERSION,
            "num_rows": self.num_rows,
            "schema": [[name, dtype.value] for name, dtype in self.schema],
            "row_groups": [group.to_json() for group in self.row_groups],
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def from_bytes(blob: bytes) -> "FileFooter":
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptFileError(f"unreadable footer: {exc}") from exc
        if payload.get("version") != FORMAT_VERSION:
            raise CorruptFileError(
                f"unsupported format version {payload.get('version')}"
            )
        schema = [(name, DataType(type_name)) for name, type_name in payload["schema"]]
        groups = [RowGroupMeta.from_json(entry) for entry in payload["row_groups"]]
        return FileFooter(payload["num_rows"], schema, groups)


class PixelsWriter:
    """Writes one columnar file to the object store.

    Usage::

        writer = PixelsWriter(store, "bucket", "tpch/orders/part-0.pxl",
                              schema=[("o_orderkey", DataType.BIGINT), ...])
        writer.write_row_group({"o_orderkey": vector, ...})
        writer.close()
    """

    def __init__(
        self,
        store: ObjectStore,
        bucket: str,
        key: str,
        schema: list[tuple[str, DataType]],
    ) -> None:
        if not schema:
            raise ValueError("schema must have at least one column")
        self._store = store
        self._bucket = bucket
        self._key = key
        self._schema = list(schema)
        self._buffer = bytearray(MAGIC)
        self._row_groups: list[RowGroupMeta] = []
        self._num_rows = 0
        self._closed = False

    def write_row_group(self, columns: dict[str, ColumnVector]) -> None:
        """Append a row group; ``columns`` must cover the schema exactly."""
        if self._closed:
            raise ValueError("writer already closed")
        expected = {name for name, _ in self._schema}
        if set(columns) != expected:
            raise ValueError(
                f"row group columns {sorted(columns)} != schema {sorted(expected)}"
            )
        lengths = {len(vector) for vector in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged row group: column lengths {lengths}")
        (group_rows,) = lengths
        chunks: dict[str, ChunkMeta] = {}
        for name, dtype in self._schema:
            vector = columns[name]
            if vector.dtype is not dtype:
                raise ValueError(
                    f"column {name!r}: expected {dtype}, got {vector.dtype}"
                )
            index = boundaries = None
            if dtype is DataType.VARCHAR:
                index = string_index(vector, dict_limit(len(vector)))
            elif dtype in RLE_TYPES:
                boundaries = run_boundaries(vector.data)
            encoding = choose_encoding(vector, index, boundaries)
            if encoding is not Encoding.DICT:
                # Past the DICT threshold the index is partial: no statistic
                # may come from it.
                index = None
            blob = encode_chunk(vector, encoding, index, boundaries)
            chunks[name] = ChunkMeta(
                column=name,
                offset=len(self._buffer),
                length=len(blob),
                encoding=encoding,
                stats=compute_stats(vector, index),
            )
            self._buffer.extend(blob)
        self._row_groups.append(RowGroupMeta(group_rows, chunks))
        self._num_rows += group_rows

    def close(self) -> int:
        """Finalize and upload the file; returns its total size in bytes."""
        if self._closed:
            raise ValueError("writer already closed")
        self._closed = True
        footer = FileFooter(self._num_rows, self._schema, self._row_groups)
        footer_blob = footer.to_bytes()
        self._buffer.extend(footer_blob)
        self._buffer.extend(struct.pack("<I", len(footer_blob)))
        self._buffer.extend(MAGIC)
        self._store.put(self._bucket, self._key, bytes(self._buffer))
        return len(self._buffer)


class PixelsReader:
    """Reads a columnar file with projection and zone-map row-group skipping.

    The reader issues range-GETs through the object store, so all bytes it
    physically touches are visible in ``store.metrics.bytes_read``.  Two
    read-path optimizations sit on top:

    * an optional :class:`~repro.storage.cache.BufferPool` serves footers
      and column chunks from memory (etag-validated), skipping GETs;
    * chunk reads for the same row group are **coalesced** — adjacent (or
      nearly adjacent, up to a max-gap budget) chunks are fetched with one
      ranged GET instead of one GET per column.

    Neither changes what a query is billed: the reader accounts every
    footer/chunk byte it *needed* in ``metrics.logical_bytes_scanned``
    regardless of where the bytes came from, and coalescing gap bytes are
    never logical.
    """

    def __init__(
        self,
        store: ObjectStore | StoreView,
        bucket: str,
        key: str,
        cache: "BufferPool | None" = None,
        footer: FileFooter | None = None,
    ) -> None:
        self._store = store
        self._bucket = bucket
        self._key = key
        self._cache = cache
        # The pool's config is the one place the gap budget is set.
        self._max_gap = (
            cache.config.max_coalesce_gap_bytes
            if cache is not None
            else DEFAULT_COALESCE_GAP_BYTES
        )
        # An injected footer (the read-ahead scan opens each file once on
        # the enumerating thread) skips the footer read *and* its
        # accounting — that open already accounted it exactly once.
        self._footer = footer if footer is not None else self._read_footer()
        self._types = dict(self._footer.schema)

    @property
    def footer(self) -> FileFooter:
        return self._footer

    @property
    def num_rows(self) -> int:
        return self._footer.num_rows

    @property
    def schema(self) -> list[tuple[str, DataType]]:
        return list(self._footer.schema)

    def column_type(self, name: str) -> DataType:
        for column, dtype in self._footer.schema:
            if column == name:
                return dtype
        raise NoSuchColumnError(f"no column {name!r} in {self._key}")

    def _read_footer(self) -> FileFooter:
        if self._cache is not None:
            cached = self._cache.footer(
                self._bucket, self._key, metrics=self._store.metrics
            )
            if cached is not None:
                footer, logical_bytes = cached
                # Billing invariant: a footer served from cache is still
                # scanned bytes to the user.
                self._store.metrics.logical_bytes_scanned += logical_bytes
                return footer  # type: ignore[return-value]
        size = self._store.head(self._bucket, self._key)
        if size < 12:
            raise CorruptFileError(f"{self._key}: too small to be a Pixels file")
        tail = self._store.get(self._bucket, self._key, start=size - 8, length=8).data
        self._store.metrics.footer_get_requests += 1
        (footer_len,) = struct.unpack_from("<I", tail, 0)
        if tail[4:] != MAGIC:
            raise CorruptFileError(f"{self._key}: bad trailing magic")
        footer_start = size - 8 - footer_len
        if footer_start < len(MAGIC):
            raise CorruptFileError(f"{self._key}: footer length out of range")
        blob = self._store.get(
            self._bucket, self._key, start=footer_start, length=footer_len
        ).data
        self._store.metrics.footer_get_requests += 1
        footer = FileFooter.from_bytes(blob)
        logical_bytes = 8 + footer_len
        self._store.metrics.logical_bytes_scanned += logical_bytes
        if self._cache is not None:
            self._cache.put_footer(self._bucket, self._key, footer, logical_bytes)
        return footer

    def read(
        self,
        columns: list[str] | None = None,
        ranges: dict[str, tuple[object | None, object | None]] | None = None,
    ) -> dict[str, ColumnVector]:
        """Read projected columns from all row groups not pruned by ``ranges``.

        Args:
            columns: Column names to materialize; None means all.
            ranges: Optional zone-map predicate per column as (low, high)
                closed bounds (None = open).  Row groups whose stats prove
                no row can match are skipped without reading any chunk.

        Returns:
            Mapping of column name to a single concatenated ColumnVector.
            Returns empty vectors (length 0) if every group is pruned.
            Every vector is plain: DICT chunks' strings are built here
            (:meth:`iter_groups` / :meth:`read_group` yield them coded).
        """
        if columns is None:
            columns = [name for name, _ in self._footer.schema]
        pieces: dict[str, list[ColumnVector]] = {column: [] for column in columns}
        for group_vectors in self.iter_groups(columns=columns, ranges=ranges):
            for column, vector in group_vectors.items():
                pieces[column].append(vector)
        result: dict[str, ColumnVector] = {}
        for column in columns:
            vectors = pieces[column]
            if not vectors:
                dtype = self.column_type(column)
                result[column] = ColumnVector(
                    dtype, np.empty(0, dtype=dtype.numpy_dtype)
                )
                continue
            result[column] = ColumnVector.concat_all(vectors).materialize()
        return result

    def iter_groups(
        self,
        columns: list[str] | None = None,
        ranges: dict[str, tuple[object | None, object | None]] | None = None,
        selection: Selection | None = None,
    ):
        """Yield each unpruned row group's projected columns, *lazily*.

        Chunks for a row group are fetched (and accounted as logical
        scanned bytes) only when the group is actually pulled — this is
        what lets a LIMIT-satisfied pipeline abandon the iterator and skip
        the GETs for every remaining row group.

        Yields:
            One ``{column: ColumnVector}`` mapping per surviving row group,
            in file order, holding the rows ``selection`` keeps (see
            :meth:`_decode_group`); a group with none still yields.
        """
        columns = self._projection(columns)
        for group in self._footer.row_groups:
            if ranges and self._pruned(group, ranges):
                continue
            yield self._decode_group(group, columns, selection)

    def read_group(
        self,
        index: int,
        columns: list[str] | None = None,
        selection: Selection | None = None,
    ) -> dict[str, ColumnVector]:
        """Fetch and decode one row group by index (the morsel read path).

        Accounting is identical to the same group being pulled from
        :meth:`iter_groups`: every projected chunk's length becomes logical
        scanned bytes, pool lookups count hits/misses, and misses are
        coalesced into ranged GETs.
        """
        return self._decode_group(
            self._footer.row_groups[index], self._projection(columns), selection
        )

    def _projection(self, columns: list[str] | None) -> list[str]:
        names = [name for name, _ in self._footer.schema]
        if columns is None:
            return names
        for column in columns:
            if column not in names:
                raise NoSuchColumnError(f"no column {column!r} in {self._key}")
        return columns

    def _decode_group(
        self, group: RowGroupMeta, columns: list[str], selection: Selection | None
    ) -> dict[str, ColumnVector]:
        """Fetch one row group's chunks and decode them in two phases.

        ``selection`` is ``(tested, predicate)``: the ``tested`` columns are
        decoded first, ``predicate({column: vector})`` returns the boolean
        mask of the group's rows to keep, and every other chunk is decoded
        under that mask (:func:`decode_chunk`'s ``rows``), so a value the
        predicate drops is never built.  A chunk the pool hands out decoded
        is not decoded again; the mask is applied with ``take``.  What is
        fetched, pooled, accounted and validated does not depend on the mask.
        """
        tested, predicate = selection or ((), None)
        fetched = columns + [column for column in tested if column not in columns]
        chunks = self._fetch_group_chunks([group.chunks[column] for column in fetched])

        def decode(column: str, rows: np.ndarray | None = None) -> ColumnVector:
            chunk = chunks[column]
            if not isinstance(chunk, bytes):
                return chunk if rows is None else chunk.take(rows)
            return decode_chunk(
                chunk, self._types[column], group.chunks[column].encoding, rows
            )

        probe = {column: decode(column) for column in tested}
        rows = None
        if predicate is not None:
            mask = predicate(probe)
            if len(mask) != group.num_rows:
                raise ValueError(
                    f"selection mask has {len(mask)} rows, the group {group.num_rows}"
                )
            if not mask.all():
                rows = np.flatnonzero(mask)
                probe = {column: vector.take(rows) for column, vector in probe.items()}
        return {
            column: probe[column] if column in probe else decode(column, rows)
            for column in columns
        }

    def surviving_group_indexes(
        self,
        ranges: dict[str, tuple[object | None, object | None]] | None = None,
    ) -> list[int]:
        """Indexes of row groups ``ranges`` cannot rule out, in file order."""
        if not ranges:
            return list(range(len(self._footer.row_groups)))
        return [
            index
            for index, group in enumerate(self._footer.row_groups)
            if not self._pruned(group, ranges)
        ]

    def _fetch_group_chunks(
        self, chunks: list[ChunkMeta]
    ) -> dict[str, bytes | ColumnVector]:
        """One row group's projected chunks, by column name: the decoded
        vector of each pool hit, the stored bytes of each miss.

        Every chunk's length is accounted as logical scanned bytes.  Pool
        hits are served from memory; the misses are sorted by offset and
        fetched with one ranged GET per coalesced run (runs merge across
        gaps of at most ``self._max_gap`` bytes — gap bytes cost bandwidth
        but are not logical).
        """
        fetched: dict[str, bytes | ColumnVector] = {}
        missing: list[ChunkMeta] = []
        for chunk in chunks:
            self._store.metrics.logical_bytes_scanned += chunk.length
            if self._cache is not None:
                vector = self._cache.chunk(
                    self._bucket,
                    self._key,
                    chunk.offset,
                    chunk.length,
                    partial(
                        decode_chunk,
                        dtype=self._types[chunk.column],
                        encoding=chunk.encoding,
                    ),
                    metrics=self._store.metrics,
                )
                if vector is not None:
                    fetched[chunk.column] = vector
                    continue
            missing.append(chunk)
        for run in _coalesce(missing, self._max_gap):
            start = run[0].offset
            length = run[-1].offset + run[-1].length - start
            payload = self._store.get(
                self._bucket, self._key, start=start, length=length
            ).data
            self._store.metrics.chunk_get_requests += 1
            for chunk in run:
                blob = payload[chunk.offset - start : chunk.offset - start + chunk.length]
                fetched[chunk.column] = blob
                if self._cache is not None:
                    self._cache.put_chunk(
                        self._bucket,
                        self._key,
                        chunk.offset,
                        blob,
                        metrics=self._store.metrics,
                    )
        return fetched

    @staticmethod
    def _pruned(
        group: RowGroupMeta,
        ranges: dict[str, tuple[object | None, object | None]],
    ) -> bool:
        for column, (low, high) in ranges.items():
            chunk = group.chunks.get(column)
            if chunk is None:
                continue
            if not chunk.stats.might_contain_range(low, high):
                return True
        return False


def _coalesce(chunks: list[ChunkMeta], max_gap: int) -> list[list[ChunkMeta]]:
    """Group chunk metas into runs servable by a single ranged GET.

    Chunks are sorted by offset; a chunk joins the current run when the
    byte gap to the run's end is at most ``max_gap``.  Projections that
    skip wide columns produce gaps larger than the budget and start a new
    run, bounding how many unneeded bytes one GET may transfer.
    """
    if not chunks:
        return []
    ordered = sorted(chunks, key=lambda chunk: chunk.offset)
    runs: list[list[ChunkMeta]] = [[ordered[0]]]
    end = ordered[0].offset + ordered[0].length
    for chunk in ordered[1:]:
        if chunk.offset - end <= max_gap:
            runs[-1].append(chunk)
        else:
            runs.append([chunk])
        end = max(end, chunk.offset + chunk.length)
    return runs
