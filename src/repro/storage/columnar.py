"""Column-chunk encodings and statistics (the Pixels format's core).

A column chunk is the unit of storage: one column within one row group.
Chunks carry zone-map statistics (min/max/null-count) that the reader uses
to skip row groups whose value range cannot satisfy a predicate — the
mechanism that makes bytes-*scanned* (what the paper bills on) smaller than
bytes stored.

Three encodings are implemented, mirroring the Pixels format's essentials:

* ``PLAIN`` — raw little-endian values; VARCHAR as int32 offsets + UTF-8.
* ``RLE`` — run-length (run, value) pairs for integer-like columns.
* ``DICT`` — dictionary codes for low-cardinality VARCHAR columns.

Encoding selection is automatic per chunk (:func:`choose_encoding`) and is
recorded in the file footer so readers round-trip losslessly.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptFileError
from repro.storage.types import ColumnVector, DataType


class Encoding(enum.Enum):
    """Physical encodings a column chunk may use."""

    PLAIN = "plain"
    RLE = "rle"
    DICT = "dict"


#: The integer-like types the writer may run-length encode.
RLE_TYPES = (DataType.INT, DataType.BIGINT, DataType.DATE)


@dataclass(frozen=True)
class ColumnChunkStats:
    """Zone-map statistics for one column chunk.

    ``min_value``/``max_value`` are None when every row is NULL or the type
    is not orderable; they are Python scalars (int/float/str) otherwise.
    """

    num_rows: int
    null_count: int
    min_value: object | None
    max_value: object | None

    def might_contain_range(self, low: object | None, high: object | None) -> bool:
        """Whether rows in [low, high] may exist in this chunk.

        ``None`` bounds are open.  A True result means "cannot rule out";
        False is a proof the chunk holds no matching row, so it may be
        skipped without reading it: a chunk without min/max (BOOLEAN) is
        ruled out only when every row is NULL.
        """
        if self.min_value is None or self.max_value is None:
            return self.null_count < self.num_rows
        if low is not None and _less_than(self.max_value, low):
            return False
        if high is not None and _less_than(high, self.min_value):
            return False
        return True


def _less_than(a: object, b: object) -> bool:
    return a < b  # type: ignore[operator]


def compute_stats(
    vector: ColumnVector, index: dict[str, int] | None = None
) -> ColumnChunkStats:
    """Compute zone-map statistics for ``vector``; ``index`` is its
    :func:`string_index`, if the caller has it."""
    num_rows = len(vector)
    null_count = vector.null_count
    if num_rows == null_count or num_rows == 0:
        return ColumnChunkStats(num_rows, null_count, None, None)
    if vector.nulls is not None:
        valid = vector.data[~vector.nulls]
    else:
        valid = vector.data
    if vector.dtype is DataType.BOOLEAN:
        return ColumnChunkStats(num_rows, null_count, None, None)
    if vector.dtype is DataType.VARCHAR:
        # Without NULLs the distinct strings bound the rows exactly (a NULL
        # slot's filler is in the index but is no value of the column).
        strings = index if index is not None and not null_count else valid.tolist()
        return ColumnChunkStats(num_rows, null_count, min(strings), max(strings))
    min_value = valid.min()
    max_value = valid.max()
    if vector.dtype is DataType.DOUBLE:
        return ColumnChunkStats(num_rows, null_count, float(min_value), float(max_value))
    return ColumnChunkStats(num_rows, null_count, int(min_value), int(max_value))


def dict_limit(num_rows: int) -> int:
    """The most distinct strings a DICT chunk of ``num_rows`` rows may hold
    (:func:`choose_encoding` picks DICT below half the rows)."""
    return max(1, num_rows // 2)


#: Fewest values :func:`string_index` hashes per step while bounded.
_MIN_INDEX_BLOCK = 256


def string_index(vector: ColumnVector, limit: int | None = None) -> dict[str, int]:
    """Each distinct string of a VARCHAR ``vector`` -> its dictionary code,
    numbered by first appearance.  :func:`choose_encoding` reads the count
    and the DICT encoder the codes, so a writer builds it once per chunk
    and hands it to both.

    With ``limit``, hashing stops as soon as more than ``limit`` distinct
    strings are seen: an index longer than ``limit`` is then *partial* — it
    still decides the encoding exactly (the chunk is not DICT), but it holds
    only a prefix of the values, so it must reach neither the DICT encoder
    nor :func:`compute_stats`.
    """
    values = vector.data.tolist()
    if limit is None or limit >= len(values):
        strings = dict.fromkeys(values)
    else:
        strings = {}
        start = 0
        while start < len(values) and len(strings) <= limit:
            # No fewer values can take the count past ``limit``.
            stop = start + max(limit + 1 - len(strings), _MIN_INDEX_BLOCK)
            strings.update(dict.fromkeys(values[start:stop]))
            start = stop
    return dict(zip(strings, range(len(strings))))


def run_boundaries(data: np.ndarray) -> np.ndarray:
    """The positions where a new run of equal values starts, after the
    first: what :func:`choose_encoding` counts and the RLE encoder cuts at,
    so a writer computes them once per chunk and hands them to both."""
    return np.flatnonzero(np.diff(data)) + 1


def choose_encoding(
    vector: ColumnVector,
    index: dict[str, int] | None = None,
    boundaries: np.ndarray | None = None,
) -> Encoding:
    """Pick the cheapest encoding for ``vector`` with simple heuristics.

    Integer-like columns whose average run length exceeds 4 use RLE;
    VARCHAR columns with < 50 % distinct values use DICT; everything else
    is PLAIN.  (The thresholds only affect size, never correctness — the
    round-trip property tests exercise all three paths explicitly.)
    ``index`` (a :func:`string_index`, bounded at :func:`dict_limit` or
    not) and ``boundaries`` (:func:`run_boundaries`) are the vector's, if
    the caller has them.
    """
    if len(vector) == 0:
        return Encoding.PLAIN
    if vector.dtype in RLE_TYPES:
        data = vector.data
        if len(data) >= 8:
            if boundaries is None:
                boundaries = run_boundaries(data)
            if len(data) / (len(boundaries) + 1) > 4.0:
                return Encoding.RLE
        return Encoding.PLAIN
    if vector.dtype is DataType.VARCHAR:
        limit = dict_limit(len(vector))
        if index is None:
            index = string_index(vector, limit)
        return Encoding.DICT if len(index) <= limit else Encoding.PLAIN
    return Encoding.PLAIN


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def encode_chunk(
    vector: ColumnVector,
    encoding: Encoding,
    index: dict[str, int] | None = None,
    boundaries: np.ndarray | None = None,
) -> bytes:
    """Serialize ``vector`` with ``encoding``; the null mask travels inline.
    ``index`` is the vector's whole :func:`string_index` and ``boundaries``
    its :func:`run_boundaries`, if the caller has them."""
    null_blob = _encode_nulls(vector)
    if encoding is Encoding.PLAIN:
        payload = _encode_plain(vector)
    elif encoding is Encoding.RLE:
        payload = _encode_rle(vector, boundaries)
    elif encoding is Encoding.DICT:
        payload = _encode_dict(vector, index)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown encoding {encoding}")
    header = struct.pack("<II", len(vector), len(null_blob))
    return header + null_blob + payload


def decode_chunk(
    blob: bytes,
    dtype: DataType,
    encoding: Encoding,
    rows: np.ndarray | None = None,
) -> ColumnVector:
    """Inverse of :func:`encode_chunk`.  A DICT chunk decodes to a *coded*
    vector (:meth:`ColumnVector.from_codes`): its strings are not built
    here.

    ``rows`` is an ascending integer array of the rows to keep; the result
    equals ``decode_chunk(blob, dtype, encoding).take(rows)`` but builds
    only those rows (a PLAIN string that is dropped is never sliced, a
    fixed-width column is gathered straight from the buffer).

    Decoded values travel far from the file, so every chunk is validated
    here and a bad one raises :class:`CorruptFileError` — on the **whole**
    chunk, whatever ``rows`` says: a corrupt chunk fails the scan whether
    or not its bad row is selected.  Strings that are not built are checked
    as one UTF-8 block; the one corruption that hides is a length vector
    that splits a multi-byte character inside a dropped row of an
    otherwise valid block.
    """
    if len(blob) < 8:
        raise CorruptFileError("column chunk too short for header")
    num_rows, null_len = struct.unpack_from("<II", blob, 0)
    if null_len not in (0, (num_rows + 7) // 8) or len(blob) < 8 + null_len:
        raise CorruptFileError("null mask length disagrees with the row count")
    nulls = _decode_nulls(blob[8 : 8 + null_len], num_rows)
    if nulls is not None and rows is not None:
        nulls = nulls[rows]
    payload = blob[8 + null_len :]
    if encoding is Encoding.PLAIN:
        data = _decode_plain(payload, dtype, num_rows, rows)
    elif encoding is Encoding.RLE and dtype in RLE_TYPES:
        data = _decode_rle(payload, dtype, num_rows, rows)
    elif encoding is Encoding.DICT and dtype is DataType.VARCHAR:
        codes, dictionary = _decode_dict(payload, num_rows)
        if rows is not None:
            codes = codes[rows]
        return ColumnVector.from_codes(codes, dictionary, nulls)
    else:
        raise CorruptFileError(f"cannot decode {dtype.value} as {encoding.value}")
    return ColumnVector(dtype, data, nulls)


def _encode_nulls(vector: ColumnVector) -> bytes:
    if vector.nulls is None or not vector.nulls.any():
        return b""
    return np.packbits(vector.nulls).tobytes()


def _decode_nulls(blob: bytes, num_rows: int) -> np.ndarray | None:
    if not blob:
        return None
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=num_rows)
    return bits.astype(bool)


def _encode_strings(values: list[str]) -> bytes:
    # The hot path of VARCHAR writes.  An ASCII block is encoded in one
    # call and its byte lengths are its character counts; otherwise each
    # value is encoded exactly once and the lengths reuse the encoded bytes.
    joined = "".join(values)
    if joined.isascii():
        payload, sized = joined.encode("ascii"), values
    else:
        sized = [value.encode("utf-8") for value in values]
        payload = b"".join(sized)
    lengths = np.fromiter(map(len, sized), dtype=np.int32, count=len(sized))
    return struct.pack("<I", len(values)) + lengths.tobytes() + payload


def _decode_strings(
    blob: bytes, num_rows: int | None = None, rows: np.ndarray | None = None
) -> list[str]:
    """The strings of a block, or only those at ``rows``; ``num_rows`` is
    the count the block must hold, if the caller knows one."""
    if len(blob) < 4:
        raise CorruptFileError("string block too short")
    (count,) = struct.unpack_from("<I", blob, 0)
    if num_rows is not None and count != num_rows:
        raise CorruptFileError(
            f"string chunk holds {count} values, expected {num_rows}"
        )
    base = 4 + 4 * count
    if len(blob) < base:
        raise CorruptFileError("string block shorter than its length vector")
    # Read unsigned, a negative length is an overrun like any other.
    lengths = np.frombuffer(blob, dtype=np.uint32, count=count, offset=4)
    # Vectorized offset arithmetic (cumsum) instead of a running counter
    # with per-item int() casts; slicing stays on byte boundaries so
    # multi-byte UTF-8 values decode exactly as written.
    ends = np.cumsum(lengths, dtype=np.int64)
    payload = blob[base:]
    if (int(ends[-1]) if count else 0) != len(payload):
        raise CorruptFileError("string lengths disagree with the block's size")
    starts = ends - lengths
    if rows is not None:
        starts, ends = starts[rows], ends[rows]
    bounds = zip(starts.tolist(), ends.tolist())
    if payload.isascii():
        # One decode for the block; a byte offset is then a character one.
        text = payload.decode("ascii")
        return [text[start:end] for start, end in bounds]
    try:
        if rows is not None:
            payload.decode("utf-8")  # the strings not built, as one block
        return [payload[start:end].decode("utf-8") for start, end in bounds]
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"string block is not UTF-8: {exc}") from None


def _encode_plain(vector: ColumnVector) -> bytes:
    if vector.dtype is DataType.VARCHAR:
        return _encode_strings(vector.data.tolist())
    if vector.dtype is DataType.BOOLEAN:
        return vector.data.astype(np.uint8).tobytes()
    return np.ascontiguousarray(vector.data).tobytes()


def _decode_plain(
    blob: bytes, dtype: DataType, num_rows: int, rows: np.ndarray | None
) -> np.ndarray:
    if dtype is DataType.VARCHAR:
        return np.array(_decode_strings(blob, num_rows, rows), dtype=object)
    numpy_dtype = dtype.numpy_dtype
    if len(blob) != num_rows * numpy_dtype.itemsize:
        raise CorruptFileError(
            f"{dtype.value} chunk is {len(blob)} bytes, expected {num_rows} values"
        )
    stored = np.uint8 if dtype is DataType.BOOLEAN else numpy_dtype
    values = np.frombuffer(blob, dtype=stored)
    # One copy either way: the view of the chunk's bytes is read-only.
    values = values.copy() if rows is None else values[rows]
    return values.astype(numpy_dtype, copy=False)


def _encode_rle(vector: ColumnVector, boundaries: np.ndarray | None) -> bytes:
    data = vector.data
    if len(data) == 0:
        return struct.pack("<I", 0)
    if boundaries is None:
        boundaries = run_boundaries(data)
    starts = np.concatenate([[0], boundaries])
    runs = np.diff(starts, append=len(data)).astype(np.int32)
    values = data[starts].astype(np.int64)
    return struct.pack("<I", len(runs)) + runs.tobytes() + values.tobytes()


def _decode_rle(
    blob: bytes, dtype: DataType, num_rows: int, rows: np.ndarray | None
) -> np.ndarray:
    if len(blob) < 4:
        raise CorruptFileError("RLE chunk too short")
    (num_runs,) = struct.unpack_from("<I", blob, 0)
    if len(blob) != 4 + 12 * num_runs:
        raise CorruptFileError("RLE chunk size disagrees with its run count")
    runs = np.frombuffer(blob, dtype=np.int32, count=num_runs, offset=4)
    values = np.frombuffer(
        blob, dtype=np.int64, count=num_runs, offset=4 + 4 * num_runs
    )
    if (runs <= 0).any() or int(runs.sum(dtype=np.int64)) != num_rows:
        raise CorruptFileError(f"RLE runs do not add up to {num_rows} rows")
    narrow = values.astype(dtype.numpy_dtype)
    if (narrow != values).any():
        raise CorruptFileError(f"RLE value out of range for {dtype.value}")
    data = np.repeat(narrow, runs)
    return data if rows is None else data[rows]


def _encode_dict(vector: ColumnVector, index: dict[str, int] | None) -> bytes:
    # The on-disk dictionary order is first appearance, which is the order
    # a dict keeps its keys in: one hash pass numbers the distinct strings,
    # a second looks every row up.
    if index is None:
        index = string_index(vector)
    rows = vector.data.tolist()
    codes = np.fromiter(map(index.__getitem__, rows), np.int32, len(rows))
    dict_blob = _encode_strings(list(index))
    return struct.pack("<I", len(dict_blob)) + dict_blob + codes.tobytes()


def _decode_dict(blob: bytes, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)``: the codes are a view of ``blob``."""
    if len(blob) < 4:
        raise CorruptFileError("dictionary chunk too short")
    (dict_len,) = struct.unpack_from("<I", blob, 0)
    if len(blob) != 4 + dict_len + 4 * num_rows:
        raise CorruptFileError("dictionary chunk size disagrees with its codes")
    dictionary = _decode_strings(blob[4 : 4 + dict_len])
    if len(set(dictionary)) != len(dictionary):
        raise CorruptFileError("dictionary values are not distinct")
    codes = np.frombuffer(blob, dtype=np.int32, count=num_rows, offset=4 + dict_len)
    # Bounds-check with one scalar gather (read unsigned, a negative code is
    # out of range too).  Not ``codes.max()``: numpy's min/max reductions
    # run AVX-512, and the core then clocks down for the string decoding
    # that follows — measured at +5 % on a scan that also reads PLAIN strings.
    try:
        np.empty(len(dictionary), dtype=np.bool_).take(codes.view(np.uint32))
    except IndexError:
        raise CorruptFileError("dictionary code out of range") from None
    return codes, np.array(dictionary, dtype=object)
