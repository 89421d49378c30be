"""Buffer-pool caching between the columnar reader and the object store.

Real PixelsDB fronts S3 with a dedicated caching layer (pixels-cache),
and Starling-style engines coalesce small range-GETs — both because the
object store's per-request first-byte latency and GET pricing dominate
cold columnar scans.  This module supplies the pool half of that design:

* a **footer cache** keyed by ``(bucket, key)`` and validated against the
  object's etag, so repeated opens of the same file skip the two footer
  range-GETs entirely;
* a **column-chunk LRU buffer pool** with a configurable byte budget,
  also etag-validated per entry, so warm scans serve chunks from memory
  instead of the store.

**What a chunk entry holds.**  An entry is ``(etag, value, charge)`` and
its value goes through two states:

1. a miss pools the chunk's stored *bytes*, charged their length (the
   reader decodes that miss itself, under its selection mask);
2. the entry's first hit decodes the bytes *whole*, once, marks every
   array of the vector read-only (``data``, ``nulls``, ``codes``,
   ``dictionary``) and keeps the vector in the bytes' place, charged
   :func:`decoded_size`.  Every later hit hands the vector out without
   decoding.

A hit on stored bytes saves only a (simulated) GET; a hit on a decoded
vector also saves the decode, which is what a warm scan spends its wall
time on.  Charging the *decoded* size keeps the byte budget honest: PLAIN
strings decode to several times their stored bytes, so charging the stored
length would let a pool hold far more memory than its budget says.

Etag validation *is* the invalidation mechanism: every PUT bumps the
object's etag and DELETE removes it, so entries cached against a stale
etag are evicted lazily on the next lookup — a pool can never serve
values from before an overwrite, decoded or not.

**Billing invariant** (see :class:`~repro.storage.table.ScanResult`):
the user is billed for *logical* bytes scanned — the chunk and footer
bytes a query needed — whether those bytes came from the pool or the
store.  Cache hits reduce modelled latency and GET-request cost only;
``StorageMetrics.logical_bytes_scanned`` is identical with the pool on
or off, which keeps the paper's $/TB-scan prices (experiment C1)
byte-stable under caching.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.storage.object_store import ObjectStore, StorageMetrics
from repro.storage.types import CodedVector, ColumnVector, DataType

#: Merge adjacent range-GETs whose gap is at most this many bytes when no
#: explicit :class:`CacheConfig` governs the reader (see
#: ``CacheConfig.max_coalesce_gap_bytes``).
DEFAULT_COALESCE_GAP_BYTES = 64 * 1024


def decoded_size(vector: ColumnVector) -> int:
    """The bytes a pooled decoded vector is charged against the budget.

    A deterministic function of the vector, close to what it holds alive:

    * fixed-width: ``data.nbytes``;
    * PLAIN VARCHAR: the pointer array plus ``sys.getsizeof`` of every
      string (each row is its own ``str``);
    * coded (DICT): the codes plus the dictionary, counted as PLAIN VARCHAR;

    plus ``nulls.nbytes`` when the vector has a null mask.
    """
    if vector.codes is not None:
        size = vector.codes.nbytes + _strings_size(vector.dictionary)
    elif vector.dtype is DataType.VARCHAR:
        size = _strings_size(vector.data)
    else:
        size = vector.data.nbytes
    return size if vector.nulls is None else size + vector.nulls.nbytes


def _strings_size(strings) -> int:
    values = strings.tolist()
    joined = "".join(values)
    if joined.isascii():
        # Every ASCII ``str`` is compact: its size is the empty string's
        # plus one byte per character, so the sum needs no call per value.
        size = len(values) * _EMPTY_STR_SIZE + len(joined)
    else:
        size = sum(map(sys.getsizeof, values))
    return strings.nbytes + size


_EMPTY_STR_SIZE = sys.getsizeof("")


def _frozen(vector: ColumnVector) -> ColumnVector:
    """``vector`` with every array read-only, fit to be shared by scans.

    A DICT chunk's codes are a view of its stored bytes; they are copied
    so that the pooled vector does not keep those bytes alive uncharged.
    """
    if vector.codes is not None:
        vector = CodedVector(vector.codes.copy(), vector.dictionary, vector.nulls)
        arrays = (vector.codes, vector.dictionary, vector.nulls)
    else:
        arrays = (vector.data, vector.nulls)
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return vector


@dataclass(frozen=True)
class CacheConfig:
    """Tunables of the buffer pool and the read-path coalescing.

    Attributes:
        enabled: Master switch; a disabled config means callers should not
            construct a pool at all (``BufferPool.from_config`` returns
            None).
        footer_entries: Maximum number of cached file footers (LRU).
        chunk_budget_bytes: Byte budget of the column-chunk pool (LRU by
            payload size).
        max_coalesce_gap_bytes: Two chunk reads in the same row group are
            merged into one ranged GET when the byte gap between them is
            at most this.  Gap bytes are transferred (they cost bandwidth
            and show up in ``bytes_read``) but are never billed to the
            user — billing uses logical bytes.
    """

    enabled: bool = True
    footer_entries: int = 1024
    chunk_budget_bytes: int = 64 * 1024 * 1024
    max_coalesce_gap_bytes: int = DEFAULT_COALESCE_GAP_BYTES

    def __post_init__(self) -> None:
        if self.footer_entries < 0:
            raise ValueError("footer_entries must be >= 0")
        if self.chunk_budget_bytes < 0:
            raise ValueError("chunk_budget_bytes must be >= 0")
        if self.max_coalesce_gap_bytes < 0:
            raise ValueError("max_coalesce_gap_bytes must be >= 0")


class BufferPool:
    """Footer cache + column-chunk LRU pool over one :class:`ObjectStore`.

    A pool is deliberately *per worker tier*: the coordinator keeps one
    long-lived pool for the VM cluster (VMs are long-running, so their
    pool is warm across queries and ends up holding decoded vectors) and a
    fresh pool per CF invocation (functions cold-start with empty memory,
    so theirs holds little but the bytes of its misses) — preserving the
    paper's elasticity asymmetry between the two tiers.  Both run the same
    code; only the pool's age differs.

    Chunk entries are ``(etag, value, charge)``: stored bytes charged their
    length until the entry's first hit, then the read-only decoded vector
    charged :func:`decoded_size` (see the module docstring).

    The pool keeps no count of its own hits, misses and evictions: each
    lookup counts them into the :class:`StorageMetrics` it is handed (a
    morsel worker's view) or the store's, and a scan reads its share as
    a delta of those.
    """

    def __init__(self, store: ObjectStore, config: CacheConfig | None = None) -> None:
        self._store = store
        self.config = config if config is not None else CacheConfig()
        # Morsel workers share one pool across threads; entry bookkeeping
        # (OrderedDict moves, byte budget) must stay consistent under that.
        self._lock = threading.Lock()
        # (bucket, key) -> (etag, footer object, logical footer bytes)
        self._footers: OrderedDict[tuple[str, str], tuple[int, object, int]] = (
            OrderedDict()
        )
        # (bucket, key, offset, length) -> (etag, bytes or vector, charge)
        self._chunks: OrderedDict[
            tuple[str, str, int, int], tuple[int, bytes | ColumnVector, int]
        ] = OrderedDict()
        self._chunk_bytes = 0

    @staticmethod
    def from_config(
        store: ObjectStore, config: CacheConfig | None
    ) -> "BufferPool | None":
        """A pool per ``config``, or None when caching is disabled."""
        if config is None or not config.enabled:
            return None
        return BufferPool(store, config)

    # -- introspection -------------------------------------------------------

    @property
    def cached_chunk_bytes(self) -> int:
        """Current occupancy of the chunk pool."""
        return self._chunk_bytes

    @property
    def cached_footers(self) -> int:
        return len(self._footers)

    @property
    def cached_chunks(self) -> int:
        return len(self._chunks)

    def clear(self) -> None:
        """Drop every entry (a cold restart of this worker tier)."""
        with self._lock:
            self._footers.clear()
            self._chunks.clear()
            self._chunk_bytes = 0

    # -- footer cache --------------------------------------------------------

    def footer(
        self, bucket: str, key: str, metrics: StorageMetrics | None = None
    ) -> tuple[object, int] | None:
        """``(footer, logical_footer_bytes)`` if cached and still current.

        Entries whose etag no longer matches the stored object (it was
        overwritten or deleted) are evicted and reported as misses.
        ``metrics`` redirects hit/miss accounting (morsel workers pass
        their private view metrics); it defaults to the store's.
        """
        metrics = metrics if metrics is not None else self._store.metrics
        current = self._store.etag(bucket, key)
        with self._lock:
            entry = self._footers.get((bucket, key))
            if entry is not None and current is not None and entry[0] == current:
                self._footers.move_to_end((bucket, key))
                metrics.footer_cache_hits += 1
                return entry[1], entry[2]
            if entry is not None:
                del self._footers[(bucket, key)]
            metrics.footer_cache_misses += 1
            return None

    def put_footer(
        self, bucket: str, key: str, footer: object, logical_bytes: int
    ) -> None:
        """Cache a parsed footer against the object's current etag."""
        if self.config.footer_entries == 0:
            return
        etag = self._store.etag(bucket, key)
        if etag is None:
            return
        with self._lock:
            self._footers[(bucket, key)] = (etag, footer, logical_bytes)
            self._footers.move_to_end((bucket, key))
            while len(self._footers) > self.config.footer_entries:
                self._footers.popitem(last=False)

    # -- column-chunk pool ---------------------------------------------------

    def chunk(
        self,
        bucket: str,
        key: str,
        offset: int,
        length: int,
        decode: Callable[[bytes], ColumnVector],
        metrics: StorageMetrics | None = None,
    ) -> ColumnVector | None:
        """The chunk's decoded vector if pooled and still current, else None.

        ``decode`` turns the chunk's stored bytes into its whole vector
        (validating them); it runs on the entry's first hit only, under the
        pool lock, so morsel threads that hit one entry together promote it
        once.  The vector's arrays are read-only and a coded vector is
        handed out as a fresh :class:`CodedVector` over the pooled codes and
        dictionary, so no caller can change what the next one reads.  A
        chunk whose decode raises stays pooled as bytes and raises again on
        its next hit.
        """
        metrics = metrics if metrics is not None else self._store.metrics
        pool_key = (bucket, key, offset, length)
        current = self._store.etag(bucket, key)
        with self._lock:
            entry = self._chunks.get(pool_key)
            if entry is not None and current is not None and entry[0] == current:
                self._chunks.move_to_end(pool_key)
                metrics.chunk_cache_hits += 1
                vector = entry[1]
                if isinstance(vector, bytes):
                    vector = self._promote(pool_key, entry, decode, metrics)
                if vector.codes is not None:
                    return CodedVector(vector.codes, vector.dictionary, vector.nulls)
                return vector
            if entry is not None:
                # Stale etag: an invalidation, counted as the miss below
                # rather than as a budget eviction.
                self._evict(pool_key, count=False)
            metrics.chunk_cache_misses += 1
            return None

    def put_chunk(
        self,
        bucket: str,
        key: str,
        offset: int,
        payload: bytes,
        metrics: StorageMetrics | None = None,
    ) -> None:
        """Pool a chunk's bytes, evicting LRU entries to stay in budget.

        A payload larger than the whole budget is not cached at all —
        admitting it would flush every other entry for a single chunk.
        """
        if len(payload) > self.config.chunk_budget_bytes:
            return
        etag = self._store.etag(bucket, key)
        if etag is None:
            return
        pool_key = (bucket, key, offset, len(payload))
        with self._lock:
            if pool_key in self._chunks:
                self._evict(pool_key, count=False)
            self._chunks[pool_key] = (etag, payload, len(payload))
            self._chunk_bytes += len(payload)
            self._fit(metrics)

    def _promote(
        self,
        pool_key: tuple[str, str, int, int],
        entry: tuple[int, bytes, int],
        decode: Callable[[bytes], ColumnVector],
        metrics: StorageMetrics,
    ) -> ColumnVector:
        """Replace a bytes entry by its read-only decoded vector, in place
        (its LRU position stays), re-charged at the decoded size.  A vector
        larger than the whole budget is returned but not kept — like an
        oversized payload, it counts as no eviction."""
        etag, payload, charge = entry
        vector = _frozen(decode(payload))
        decoded = decoded_size(vector)
        if decoded > self.config.chunk_budget_bytes:
            self._evict(pool_key, count=False)
            return vector
        self._chunks[pool_key] = (etag, vector, decoded)
        self._chunk_bytes += decoded - charge
        self._fit(metrics)
        return vector

    def _fit(self, metrics: StorageMetrics | None) -> None:
        """Evict LRU entries until the pool is within its budget."""
        while self._chunk_bytes > self.config.chunk_budget_bytes and self._chunks:
            oldest = next(iter(self._chunks))
            self._evict(oldest, metrics=metrics)

    def _evict(
        self,
        pool_key: tuple[str, str, int, int],
        count: bool = True,
        metrics: StorageMetrics | None = None,
    ) -> None:
        _, _, charge = self._chunks.pop(pool_key)
        self._chunk_bytes -= charge
        if count:
            metrics = metrics if metrics is not None else self._store.metrics
            metrics.chunk_cache_evictions += 1
