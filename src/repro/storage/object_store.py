"""An S3-like object store with a calibrated cost model.

The store is in-memory (a dict of buckets), but every request is *accounted*:
bytes transferred, request counts, and modelled wall-clock latency.  The
Turbo cost model converts bytes-scanned into the paper's $/TB-scan prices,
and the simulator charges the modelled latency as simulated time, so the
latency/throughput parameters below are what make VM and CF execution times
realistic.

Defaults are calibrated to public S3 figures: ~30 ms time-to-first-byte per
GET and ~90 MB/s single-stream throughput, $0.0004 per 1000 GETs, $0.005 per
1000 PUTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NoSuchBucketError, NoSuchObjectError


@dataclass(frozen=True)
class StorageProfile:
    """Latency/throughput/price parameters of the object store.

    Attributes:
        first_byte_latency_s: Fixed latency added to every GET.
        read_bandwidth_bytes_per_s: Single-request streaming throughput.
        write_bandwidth_bytes_per_s: Single-request upload throughput.
        get_price_per_1000: Dollars per 1000 GET requests.
        put_price_per_1000: Dollars per 1000 PUT requests.
    """

    first_byte_latency_s: float = 0.030
    read_bandwidth_bytes_per_s: float = 90e6
    write_bandwidth_bytes_per_s: float = 60e6
    get_price_per_1000: float = 0.0004
    put_price_per_1000: float = 0.005

    def get_latency(self, num_bytes: int) -> float:
        """Modelled wall-clock seconds for a GET of ``num_bytes``."""
        return self.read_latency(1, num_bytes)

    def read_latency(self, requests: int, num_bytes: int) -> float:
        """Modelled seconds of ``requests`` GETs moving ``num_bytes`` in
        total — a function of the two counts alone, so the same reads give
        the same float however they were split or ordered (a difference of
        running float totals does not)."""
        return (
            requests * self.first_byte_latency_s
            + num_bytes / self.read_bandwidth_bytes_per_s
        )

    def put_latency(self, num_bytes: int) -> float:
        """Modelled wall-clock seconds for a PUT of ``num_bytes``."""
        return self.first_byte_latency_s + num_bytes / self.write_bandwidth_bytes_per_s


@dataclass
class StorageMetrics:
    """Accumulated request accounting, the basis of $/TB-scan billing.

    ``bytes_read`` counts *physical* payload bytes transferred (coalesced
    range-GETs include the gap bytes they bridge); ``logical_bytes_scanned``
    counts the footer and chunk bytes readers actually needed, whether they
    came from the store or a :class:`~repro.storage.cache.BufferPool`.  The
    logical counter is the billing basis: it is byte-identical with caching
    on or off, so cache hits never change a user's $/TB-scan bill — only
    latency and GET-request cost drop.
    """

    get_requests: int = 0
    # Request-class split of get_requests, stamped by PixelsReader: footer
    # reads vs (coalesced) column-chunk reads.  GETs issued outside the
    # reader (raw store.get calls) belong to neither class.
    footer_get_requests: int = 0
    chunk_get_requests: int = 0
    put_requests: int = 0
    delete_requests: int = 0
    list_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_time_s: float = 0.0
    write_time_s: float = 0.0
    logical_bytes_scanned: int = 0
    footer_cache_hits: int = 0
    footer_cache_misses: int = 0
    chunk_cache_hits: int = 0
    chunk_cache_misses: int = 0
    chunk_cache_evictions: int = 0

    def request_cost(self, profile: StorageProfile) -> float:
        """Dollar cost of the requests accumulated so far."""
        return (
            self.get_requests * profile.get_price_per_1000
            + self.put_requests * profile.put_price_per_1000
        ) / 1000.0

    def snapshot(self) -> "StorageMetrics":
        """A copy frozen at the current counters (for before/after deltas)."""
        return StorageMetrics(**vars(self))

    def delta(self, earlier: "StorageMetrics") -> "StorageMetrics":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return StorageMetrics(
            **{key: getattr(self, key) - getattr(earlier, key) for key in vars(self)}
        )

    def merge(self, other: "StorageMetrics") -> None:
        """Add ``other``'s counters into this object."""
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


@dataclass(kw_only=True)
class ScanCounters:
    """What a scan cost, declared once for every record that reports it.

    ``bytes_scanned`` is the *logical* byte count (footers plus needed
    column chunks), the $/TB-scan billing basis; the rest say how those
    bytes were served (GETs, footer vs chunk, pool hits, misses and
    evictions) and how many row groups zone maps skipped.  Scan results,
    query stats, operator profiles and statement entries subclass this;
    a :class:`StorageMetrics` delta becomes counters only in :meth:`of`,
    and counters are summed only in :meth:`add`.
    """

    bytes_scanned: int = 0
    get_requests: int = 0
    footer_gets: int = 0  # request-class split of get_requests
    chunk_gets: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    row_groups_skipped: int = 0

    @classmethod
    def of(cls, delta: StorageMetrics, skipped: int, **fields):
        """The counters of a scan whose store accounting was ``delta`` and
        which skipped ``skipped`` row groups, plus ``cls``'s own ``fields``."""
        return cls(
            bytes_scanned=delta.logical_bytes_scanned,
            get_requests=delta.get_requests,
            footer_gets=delta.footer_get_requests,
            chunk_gets=delta.chunk_get_requests,
            cache_hits=delta.footer_cache_hits + delta.chunk_cache_hits,
            cache_misses=delta.footer_cache_misses + delta.chunk_cache_misses,
            cache_evictions=delta.chunk_cache_evictions,
            row_groups_skipped=skipped,
            **fields,
        )

    def add(self, other: "ScanCounters") -> None:
        """Add ``other``'s counters into this object."""
        self.bytes_scanned += other.bytes_scanned
        self.get_requests += other.get_requests
        self.footer_gets += other.footer_gets
        self.chunk_gets += other.chunk_gets
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.row_groups_skipped += other.row_groups_skipped


@dataclass
class GetResult:
    """Payload plus the modelled latency of a GET."""

    data: bytes
    latency_s: float


@dataclass
class _Object:
    data: bytes
    etag: int


@dataclass
class ObjectStore:
    """In-memory, accounted object store.

    Keys follow S3 semantics: flat namespace per bucket, '/'-separated
    prefixes are a listing convention only.  Range reads are supported
    because the columnar reader fetches footers and individual column
    chunks with byte ranges — exactly the access pattern that makes
    bytes-*scanned* differ from file size.
    """

    profile: StorageProfile = field(default_factory=StorageProfile)

    def __post_init__(self) -> None:
        self._buckets: dict[str, dict[str, _Object]] = {}
        self._etag_counter = 0
        self.metrics = StorageMetrics()

    # -- bucket management -------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        """Create ``bucket``; creating an existing bucket is a no-op (S3-like)."""
        self._buckets.setdefault(bucket, {})

    def bucket_exists(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _bucket(self, bucket: str) -> dict[str, _Object]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucketError(f"no such bucket: {bucket!r}") from None

    # -- object operations --------------------------------------------------

    def put(self, bucket: str, key: str, data: bytes) -> float:
        """Store ``data`` at ``bucket/key``; returns modelled latency."""
        self._etag_counter += 1
        self._bucket(bucket)[key] = _Object(bytes(data), self._etag_counter)
        latency = self.profile.put_latency(len(data))
        self.metrics.put_requests += 1
        self.metrics.bytes_written += len(data)
        self.metrics.write_time_s += latency
        return latency

    def read_range(
        self, bucket: str, key: str, start: int = 0, length: int | None = None
    ) -> bytes:
        """Raw payload of a (range) read, with *no* request accounting.

        ``get`` layers the accounting on top; :class:`StoreView` layers it
        into a private metrics object instead, so parallel morsel workers
        can account in isolation and merge deterministically afterwards.
        """
        store = self._bucket(bucket)
        if key not in store:
            raise NoSuchObjectError(f"no such object: {bucket}/{key}")
        blob = store[key].data
        end = len(blob) if length is None else min(len(blob), start + length)
        return blob[start:end]

    def get(
        self, bucket: str, key: str, start: int = 0, length: int | None = None
    ) -> GetResult:
        """Fetch ``bucket/key`` (optionally a byte range)."""
        payload = self.read_range(bucket, key, start, length)
        latency = self.profile.get_latency(len(payload))
        self.metrics.get_requests += 1
        self.metrics.bytes_read += len(payload)
        self.metrics.read_time_s += latency
        return GetResult(payload, latency)

    def head(self, bucket: str, key: str) -> int:
        """Size in bytes of ``bucket/key`` (raises if missing)."""
        store = self._bucket(bucket)
        if key not in store:
            raise NoSuchObjectError(f"no such object: {bucket}/{key}")
        return len(store[key].data)

    def etag(self, bucket: str, key: str) -> int | None:
        """Current etag of ``bucket/key``, or None when it does not exist.

        Every PUT assigns a fresh etag, so an etag comparison detects
        overwrites — this is what buffer-pool entries validate against.
        Metadata-only, like a conditional-GET precondition: not billed as
        a request.
        """
        store = self._buckets.get(bucket)
        if store is None or key not in store:
            return None
        return store[key].etag

    def exists(self, bucket: str, key: str) -> bool:
        return self.bucket_exists(bucket) and key in self._buckets[bucket]

    def delete(self, bucket: str, key: str) -> None:
        """Delete ``bucket/key``; deleting a missing key is a no-op (S3-like)."""
        self._bucket(bucket).pop(key, None)
        self.metrics.delete_requests += 1

    def list_keys(self, bucket: str, prefix: str = "") -> list[str]:
        """All keys in ``bucket`` starting with ``prefix``, sorted."""
        self.metrics.list_requests += 1
        return sorted(key for key in self._bucket(bucket) if key.startswith(prefix))

    def total_bytes(self, bucket: str, prefix: str = "") -> int:
        """Total stored size under ``prefix`` (no request accounting)."""
        store = self._bucket(bucket)
        return sum(
            len(obj.data) for key, obj in store.items() if key.startswith(prefix)
        )


class StoreView:
    """A read-only handle on an :class:`ObjectStore` with private metrics.

    Morsel workers read through one fresh view each: the view shares the
    store's data and latency model but accounts every request into its own
    :class:`StorageMetrics`, so concurrent workers never race on the shared
    counters.  The parallel scan merges each view's metrics into the real
    store in morsel order as it yields that morsel's granule — the global
    counters end up identical to a sequential run, and per-morsel deltas
    are simply ``view.metrics``.

    Only the read-side surface a :class:`~repro.storage.file_format.PixelsReader`
    touches is exposed (get/head/etag/exists/profile).
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self.metrics = StorageMetrics()

    @property
    def profile(self) -> StorageProfile:
        return self._store.profile

    def get(
        self, bucket: str, key: str, start: int = 0, length: int | None = None
    ) -> GetResult:
        payload = self._store.read_range(bucket, key, start, length)
        latency = self._store.profile.get_latency(len(payload))
        self.metrics.get_requests += 1
        self.metrics.bytes_read += len(payload)
        self.metrics.read_time_s += latency
        return GetResult(payload, latency)

    def head(self, bucket: str, key: str) -> int:
        return self._store.head(bucket, key)

    def etag(self, bucket: str, key: str) -> int | None:
        return self._store.etag(bucket, key)

    def exists(self, bucket: str, key: str) -> bool:
        return self._store.exists(bucket, key)
