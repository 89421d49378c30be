"""Batches: the unit of data flow in the vectorized pipeline.

The pipeline (:mod:`repro.engine.pipeline`) moves data between physical
operators as bounded :class:`~repro.storage.table.TableData` slices of at
most ``batch_size`` rows instead of whole tables.  A slice is a *view*: it
goes through ``numpy`` basic slicing, so the column buffers are shared with
the parent table (zero-copy for every non-object dtype).

Batching is what bounds peak memory in streaming operators (at most one
batch is materialized per operator) and what makes LIMIT early-exit
possible: once a consumer stops asking for batches, upstream operators —
all the way down to the object-store scan — never do the remaining work.
"""

from __future__ import annotations

from typing import Iterator

from repro.storage.table import TableData
from repro.storage.types import ColumnVector, DataType

DEFAULT_BATCH_SIZE = 4096
"""Rows per batch.  Large enough that per-batch (python-level) overhead is
amortized across thousands of rows of vectorized work, small enough that a
streaming pipeline's working set stays in cache-friendly territory."""


def approx_vector_nbytes(vector: ColumnVector) -> int:
    """Cheap O(1) in-memory size estimate used for peak-memory accounting.

    Unlike :meth:`ColumnVector.nbytes` this never walks VARCHAR payloads
    (which would re-encode every string to UTF-8); object columns are
    counted at pointer width.  Peak-materialized-bytes is an operator
    memory gauge, not a billing basis, so the approximation is fine.
    """
    if vector.dtype is DataType.VARCHAR:
        size = 8 * len(vector)  # either representation; never builds strings
    else:
        size = int(vector.data.nbytes)
    if vector.nulls is not None:
        size += int(vector.nulls.nbytes)
    return size


def approx_table_nbytes(table: TableData) -> int:
    """O(columns) size estimate of a table (see :func:`approx_vector_nbytes`)."""
    return sum(approx_vector_nbytes(vector) for vector in table.columns.values())


def slices(table: TableData, batch_size: int) -> Iterator[TableData]:
    """Yield ``table`` as zero-copy batches of at most ``batch_size`` rows.

    Batches share buffers with ``table`` — consumers must not mutate their
    column arrays in place.  An empty table yields nothing (the executor
    rebuilds the schema from the plan when no batch arrives).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    total = table.num_rows
    start = 0
    while start < total:
        stop = min(start + batch_size, total)
        yield table.slice(start, stop)
        start = stop
