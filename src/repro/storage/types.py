"""Column data types and the in-memory column vector.

The engine is vectorized: every operator consumes and produces
:class:`ColumnVector` objects (a numpy array plus an optional null mask).
``DataType`` is the logical type system shared by the catalog, the SQL
binder, and the columnar file format.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class DataType(enum.Enum):
    """Logical column types supported by the reproduction.

    The set matches what the TPC-H-style workloads need; DECIMAL is carried
    as float64 (sufficient for the scheduling/pricing experiments, which do
    not depend on exact decimal arithmetic).
    """

    BOOLEAN = "boolean"
    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    VARCHAR = "varchar"
    DATE = "date"  # days since 1970-01-01, stored as int32

    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical numpy dtype backing this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.DOUBLE)

    @property
    def is_orderable(self) -> bool:
        """Whether <, >, BETWEEN, MIN/MAX make sense for this type."""
        return self is not DataType.BOOLEAN

    @staticmethod
    def from_string(name: str) -> "DataType":
        """Parse a type name as written in SQL/DDL (case-insensitive)."""
        normalized = name.strip().lower()
        aliases = {
            "integer": "int",
            "long": "bigint",
            "float": "double",
            "real": "double",
            "decimal": "double",
            "string": "varchar",
            "text": "varchar",
            "char": "varchar",
            "bool": "boolean",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return DataType(normalized)
        except ValueError:
            raise ValueError(f"unknown data type: {name!r}") from None


_NUMPY_DTYPES: dict[DataType, np.dtype] = {
    DataType.BOOLEAN: np.dtype(np.bool_),
    DataType.INT: np.dtype(np.int32),
    DataType.BIGINT: np.dtype(np.int64),
    DataType.DOUBLE: np.dtype(np.float64),
    DataType.VARCHAR: np.dtype(object),
    DataType.DATE: np.dtype(np.int32),
}


@dataclass
class ColumnVector:
    """A typed column of values with an optional validity mask.

    Attributes:
        dtype: Logical type of the column.
        data: Backing numpy array (``object`` dtype for VARCHAR).
        nulls: Boolean array, True where the value is NULL; ``None`` means
            no nulls anywhere (the common fast path).

    ``codes`` and ``dictionary`` are ``None`` except on the dictionary-coded
    VARCHAR representation, :class:`CodedVector` (see :meth:`from_codes`).
    """

    dtype: DataType
    data: np.ndarray
    nulls: np.ndarray | None = field(default=None)
    codes: ClassVar[np.ndarray | None] = None
    dictionary: ClassVar[np.ndarray | None] = None

    def __post_init__(self) -> None:
        if self.nulls is not None and len(self.nulls) != len(self.data):
            raise ValueError("null mask length must match data length")

    @staticmethod
    def from_codes(
        codes: np.ndarray, dictionary: np.ndarray, nulls: np.ndarray | None = None
    ) -> "ColumnVector":
        """A dictionary-coded VARCHAR vector (what a DICT chunk decodes to);
        the caller vouches that ``dictionary`` is distinct and every code
        is in range."""
        return CodedVector(codes, dictionary, nulls)

    def __len__(self) -> int:
        return len(self.data)

    def materialize(self) -> "ColumnVector":
        """This column as a plain vector (the result boundary): a coded
        vector's strings are built here, a plain one is returned as is."""
        return self

    @property
    def null_count(self) -> int:
        return 0 if self.nulls is None else int(self.nulls.sum())

    def has_nulls(self) -> bool:
        return self.nulls is not None and bool(self.nulls.any())

    @staticmethod
    def from_values(dtype: DataType, values: list) -> "ColumnVector":
        """Build a vector from a Python list; ``None`` entries become NULLs."""
        null_flags = np.array([value is None for value in values], dtype=bool)
        if dtype is DataType.VARCHAR:
            data = np.array(
                ["" if value is None else str(value) for value in values],
                dtype=object,
            )
        else:
            filler: object = False if dtype is DataType.BOOLEAN else 0
            data = np.array(
                [filler if value is None else value for value in values],
                dtype=dtype.numpy_dtype,
            )
        nulls = null_flags if null_flags.any() else None
        return ColumnVector(dtype, data, nulls)

    def to_values(self) -> list:
        """Convert back to a Python list with ``None`` for NULLs."""
        raw = self.data.tolist()
        if self.nulls is None:
            return raw
        return [None if null else value for value, null in zip(raw, self.nulls)]

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by integer index (the join/sort building block)."""
        nulls = None if self.nulls is None else self.nulls[indices]
        return ColumnVector(self.dtype, self.data[indices], nulls)

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where ``mask`` is True."""
        nulls = None if self.nulls is None else self.nulls[mask]
        return ColumnVector(self.dtype, self.data[mask], nulls)

    def slice(self, start: int, stop: int) -> "ColumnVector":
        nulls = None if self.nulls is None else self.nulls[start:stop]
        return ColumnVector(self.dtype, self.data[start:stop], nulls)

    def concat(self, other: "ColumnVector") -> "ColumnVector":
        """Append ``other`` below this vector (dtypes must match)."""
        return ColumnVector.concat_all([self, other])

    @staticmethod
    def concat_all(vectors: "list[ColumnVector]") -> "ColumnVector":
        """Concatenate many vectors in one pass (dtypes must match).

        A single ``np.concatenate`` allocates the result once, so merging
        n pieces is O(total rows) — the pairwise ``concat`` loop it
        replaces re-copied every previously merged row and was O(n²).
        Coded pieces stay coded: their dictionaries are unified by value,
        in order of first appearance across the pieces (pieces sharing one
        dictionary object — slices of one row group — skip that); a mix of
        coded and plain pieces concatenates plain.
        """
        if not vectors:
            raise ValueError("concat_all needs at least one vector")
        first = vectors[0]
        for vector in vectors[1:]:
            if vector.dtype is not first.dtype:
                raise ValueError(
                    f"dtype mismatch: {first.dtype} vs {vector.dtype}"
                )
        if len(vectors) == 1:
            return first
        if all(vector.nulls is None for vector in vectors):
            nulls = None
        else:
            nulls = np.concatenate(
                [
                    vector.nulls
                    if vector.nulls is not None
                    else np.zeros(len(vector), dtype=bool)
                    for vector in vectors
                ]
            )
        if all(vector.codes is not None for vector in vectors):
            return CodedVector(*_unify(vectors), nulls)
        data = np.concatenate([vector.data for vector in vectors])
        return ColumnVector(first.dtype, data, nulls)

    def nbytes(self) -> int:
        """Approximate in-memory size; VARCHAR counts UTF-8 payload."""
        if self.dtype is DataType.VARCHAR:
            payload = sum(len(str(value).encode("utf-8")) for value in self.data)
            return payload + 4 * len(self.data)  # offsets
        size = int(self.data.nbytes)
        if self.nulls is not None:
            size += int(self.nulls.nbytes)
        return size


class CodedVector(ColumnVector):
    """The dictionary-coded representation of a VARCHAR column.

    ``codes[i]`` indexes ``dictionary``, an object array of **distinct**
    strings, some of which no row may use; NULL slots carry an arbitrary
    in-range code.  ``data`` is ``dictionary[codes]``, built on first touch
    and kept, so code that knows nothing about dictionaries stays correct;
    ``take`` / ``filter`` / ``slice`` / ``concat_all`` act on the codes and
    never build it.  Building it is an idempotent write — two morsel
    threads may both do it, to the same value — so it takes no lock.  A
    subclass, so that a plain vector's ``data`` stays a plain attribute.
    """

    def __init__(
        self, codes: np.ndarray, dictionary: np.ndarray, nulls: np.ndarray | None
    ) -> None:
        if nulls is not None and len(nulls) != len(codes):
            raise ValueError("null mask length must match data length")
        self.dtype = DataType.VARCHAR
        self.codes, self.dictionary, self.nulls = codes, dictionary, nulls
        self._data: np.ndarray | None = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = self.dictionary[self.codes]
        return self._data

    def __len__(self) -> int:
        return len(self.codes)

    def materialize(self) -> ColumnVector:
        return ColumnVector(self.dtype, self.data, self.nulls)

    def _select(self, key) -> "CodedVector":
        nulls = None if self.nulls is None else self.nulls[key]
        return CodedVector(self.codes[key], self.dictionary, nulls)

    def take(self, indices: np.ndarray) -> "CodedVector":
        return self._select(indices)

    def filter(self, mask: np.ndarray) -> "CodedVector":
        return self._select(mask)

    def slice(self, start: int, stop: int) -> "CodedVector":
        return self._select(slice(start, stop))


def _unify(vectors: list[ColumnVector]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated codes of coded ``vectors`` over one merged dictionary."""
    dictionary = vectors[0].dictionary
    if all(vector.dictionary is dictionary for vector in vectors):
        return np.concatenate([vector.codes for vector in vectors]), dictionary
    index: dict[str, int] = {}
    remaps: dict[int, np.ndarray] = {}  # batches of one row group share theirs
    pieces = []
    for vector in vectors:
        remap = remaps.get(id(vector.dictionary))
        if remap is None:
            entries = vector.dictionary.tolist()
            remap = remaps[id(vector.dictionary)] = np.fromiter(
                (index.setdefault(entry, len(index)) for entry in entries),
                np.int32,
                len(entries),
            )
        pieces.append(remap[vector.codes])
    return np.concatenate(pieces), np.array(list(index), dtype=object)


def date_to_days(iso_date: str) -> int:
    """Convert 'YYYY-MM-DD' to days since the Unix epoch."""
    import datetime as _dt

    delta = _dt.date.fromisoformat(iso_date) - _dt.date(1970, 1, 1)
    return delta.days


def days_to_date(days: int) -> str:
    """Convert days since the Unix epoch back to 'YYYY-MM-DD'."""
    import datetime as _dt

    return (_dt.date(1970, 1, 1) + _dt.timedelta(days=int(days))).isoformat()
