"""Storage substrate: object store, columnar format, and catalog.

PixelsDB stores base tables and CF-produced intermediate results in cloud
object storage (the paper uses AWS S3) in the Pixels columnar format.  This
package reproduces both layers:

* :mod:`repro.storage.object_store` — an S3-like object store with a
  calibrated latency/throughput/pricing model and per-request accounting
  (the pricing experiments bill $/TB *scanned*, so bytes-read accounting is
  load-bearing).
* :mod:`repro.storage.columnar` / :mod:`repro.storage.file_format` — a
  row-group / column-chunk columnar file format with per-chunk min/max
  statistics (zone maps), plain/RLE/dictionary encodings, projection and
  predicate push-down on read.
* :mod:`repro.storage.cache` — the buffer-pool layer fronting the object
  store (footer cache + column-chunk LRU with etag invalidation), the
  analogue of pixels-cache; cache hits cut latency and GET cost but never
  the billed bytes-scanned.
* :mod:`repro.storage.catalog` — the metadata service the Coordinator
  manages: schemas, tables, columns, and the mapping of tables to files.
"""

from repro.storage.cache import BufferPool, CacheConfig
from repro.storage.catalog import Catalog, ColumnMeta, SchemaMeta, TableMeta
from repro.storage.columnar import ColumnChunkStats, Encoding
from repro.storage.file_format import PixelsReader, PixelsWriter
from repro.storage.object_store import ObjectStore, StorageMetrics, StorageProfile
from repro.storage.table import TableData, TableReader, TableWriter
from repro.storage.types import ColumnVector, DataType

__all__ = [
    "BufferPool",
    "CacheConfig",
    "Catalog",
    "ColumnChunkStats",
    "ColumnMeta",
    "ColumnVector",
    "DataType",
    "Encoding",
    "ObjectStore",
    "PixelsReader",
    "PixelsWriter",
    "SchemaMeta",
    "StorageMetrics",
    "StorageProfile",
    "TableData",
    "TableMeta",
    "TableReader",
    "TableWriter",
]
