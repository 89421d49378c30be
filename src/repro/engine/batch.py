"""Record batches: the unit of data flow in the vectorized pipeline.

The pipeline executor (:mod:`repro.engine.pipeline`) moves data between
physical operators as fixed-size :class:`RecordBatch` slices instead of
whole tables.  A batch is a *view*: slicing a :class:`~repro.storage.table
.TableData` goes through ``numpy`` basic slicing, so the column buffers are
shared with the parent table (zero-copy for every non-object dtype).

Batching is what bounds peak memory in streaming operators (at most one
batch is materialized per operator) and what makes LIMIT early-exit
possible: once a consumer stops asking for batches, upstream operators —
all the way down to the object-store scan — never do the remaining work.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RecordBatch:
    """A bounded horizontal slice of a table, exchanged between operators.

    ``data`` shares buffers with whatever produced it — operators must not
    mutate column arrays in place.
    """

    data: TableData

    @property
    def num_rows(self) -> int:
        return self.data.num_rows

    @property
    def column_names(self) -> list[str]:
        return self.data.column_names

    def approx_nbytes(self) -> int:
        return approx_table_nbytes(self.data)

    @staticmethod
    def slices(table: TableData, batch_size: int) -> Iterator["RecordBatch"]:
        """Yield ``table`` as zero-copy batches of at most ``batch_size`` rows.

        An empty table yields nothing (the pipeline driver rebuilds the
        schema from the plan when no batch arrives).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        total = table.num_rows
        start = 0
        while start < total:
            stop = min(start + batch_size, total)
            yield RecordBatch(table.slice(start, stop))
            start = stop


class BatchStream:
    """A single-use stream of table batches attachable to a
    :class:`~repro.engine.plan.MaterializedView`.

    This is the seam that makes the Turbo coordinator's merge step
    incremental: instead of materializing the CF sub-plan's full result and
    handing it to the top-level plan as one table, the coordinator attaches
    the sub-executor's batch iterator, and the top-level pipeline pulls it
    batch by batch.  If the top-level plan stops early (LIMIT), closing the
    stream propagates all the way back into the sub-plan's scan.
    """

    def __init__(
        self,
        batches: Iterator[TableData],
        schema: list[tuple[str, DataType]],
    ) -> None:
        self._batches = batches
        self._schema = list(schema)
        self._closed = False
        self.batches_consumed = 0

    def schema(self) -> list[tuple[str, DataType]]:
        return list(self._schema)

    def next_table(self) -> TableData | None:
        if self._closed:
            return None
        piece = next(self._batches, None)
        if piece is None:
            self.close()
            return None
        self.batches_consumed += 1
        return piece

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()
