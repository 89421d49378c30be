"""Unit + property tests for column-chunk encodings and zone-map stats."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptFileError
from repro.storage.columnar import (
    ColumnChunkStats,
    Encoding,
    choose_encoding,
    compute_stats,
    decode_chunk,
    dict_limit,
    encode_chunk,
    string_index,
)
from repro.storage.types import ColumnVector, DataType


def roundtrip(vector: ColumnVector, encoding: Encoding) -> ColumnVector:
    return decode_chunk(encode_chunk(vector, encoding), vector.dtype, encoding)


class TestEncodingRoundtrips:
    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE])
    def test_int_roundtrip(self, encoding):
        vector = ColumnVector.from_values(DataType.INT, [1, 1, 1, 5, -3, 5])
        assert roundtrip(vector, encoding).to_values() == vector.to_values()

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.RLE])
    def test_bigint_roundtrip(self, encoding):
        values = [2**40, 2**40, -(2**41), 0]
        vector = ColumnVector.from_values(DataType.BIGINT, values)
        assert roundtrip(vector, encoding).to_values() == values

    def test_double_plain_roundtrip(self):
        values = [1.5, -2.25, 0.0, 1e300]
        vector = ColumnVector.from_values(DataType.DOUBLE, values)
        assert roundtrip(vector, Encoding.PLAIN).to_values() == values

    def test_boolean_plain_roundtrip(self):
        values = [True, False, True]
        vector = ColumnVector.from_values(DataType.BOOLEAN, values)
        assert roundtrip(vector, Encoding.PLAIN).to_values() == values

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.DICT])
    def test_varchar_roundtrip(self, encoding):
        values = ["apple", "banana", "apple", "", "ünïcødé"]
        vector = ColumnVector.from_values(DataType.VARCHAR, values)
        assert roundtrip(vector, encoding).to_values() == values

    def test_nulls_roundtrip_all_encodings(self):
        int_vector = ColumnVector.from_values(DataType.INT, [1, None, 1, 1, None])
        for encoding in (Encoding.PLAIN, Encoding.RLE):
            assert roundtrip(int_vector, encoding).to_values() == [1, None, 1, 1, None]
        str_vector = ColumnVector.from_values(DataType.VARCHAR, ["a", None, "a"])
        for encoding in (Encoding.PLAIN, Encoding.DICT):
            assert roundtrip(str_vector, encoding).to_values() == ["a", None, "a"]

    def test_empty_roundtrip(self):
        vector = ColumnVector(DataType.INT, np.empty(0, dtype=np.int32))
        for encoding in (Encoding.PLAIN, Encoding.RLE):
            assert len(roundtrip(vector, encoding)) == 0

    def test_date_roundtrip(self):
        vector = ColumnVector.from_values(DataType.DATE, [0, 9000, 9000, -10])
        assert roundtrip(vector, Encoding.RLE).to_values() == [0, 9000, 9000, -10]


class TestPropertyRoundtrips:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-(2**31), 2**31 - 1), st.none()), max_size=200
        )
    )
    def test_int_plain(self, values):
        vector = ColumnVector.from_values(DataType.INT, values)
        assert roundtrip(vector, Encoding.PLAIN).to_values() == values

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-100, 100), st.none()), max_size=200)
    )
    def test_int_rle(self, values):
        vector = ColumnVector.from_values(DataType.INT, values)
        assert roundtrip(vector, Encoding.RLE).to_values() == values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.text(max_size=20), st.none()), max_size=100))
    def test_varchar_dict(self, values):
        vector = ColumnVector.from_values(DataType.VARCHAR, values)
        result = roundtrip(vector, Encoding.DICT).to_values()
        expected = ["" if v is None else v for v in values]
        got = ["" if v is None else v for v in result]
        assert got == expected
        # Null positions preserved exactly.
        assert [v is None for v in result] == [v is None for v in values]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False), st.none()
            ),
            max_size=100,
        )
    )
    def test_double_plain(self, values):
        vector = ColumnVector.from_values(DataType.DOUBLE, values)
        assert roundtrip(vector, Encoding.PLAIN).to_values() == values

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=300))
    def test_stats_bound_all_values(self, values):
        vector = ColumnVector.from_values(DataType.INT, values)
        stats = compute_stats(vector)
        assert stats.min_value == min(values)
        assert stats.max_value == max(values)
        assert stats.num_rows == len(values)


class TestChooseEncoding:
    def test_long_runs_pick_rle(self):
        vector = ColumnVector.from_values(DataType.INT, [7] * 100)
        assert choose_encoding(vector) is Encoding.RLE

    def test_random_ints_pick_plain(self):
        vector = ColumnVector.from_values(DataType.INT, list(range(100)))
        assert choose_encoding(vector) is Encoding.PLAIN

    def test_low_cardinality_strings_pick_dict(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["x", "y"] * 50)
        assert choose_encoding(vector) is Encoding.DICT

    def test_unique_strings_pick_plain(self):
        vector = ColumnVector.from_values(
            DataType.VARCHAR, [f"s{i}" for i in range(100)]
        )
        assert choose_encoding(vector) is Encoding.PLAIN

    def test_doubles_pick_plain(self):
        vector = ColumnVector.from_values(DataType.DOUBLE, [1.0] * 100)
        assert choose_encoding(vector) is Encoding.PLAIN

    def test_empty_picks_plain(self):
        vector = ColumnVector(DataType.INT, np.empty(0, dtype=np.int32))
        assert choose_encoding(vector) is Encoding.PLAIN

    def test_rle_actually_smaller_on_runs(self):
        vector = ColumnVector.from_values(DataType.INT, [3] * 1000)
        rle = encode_chunk(vector, Encoding.RLE)
        plain = encode_chunk(vector, Encoding.PLAIN)
        assert len(rle) < len(plain) / 10

    def test_dict_actually_smaller_on_repeats(self):
        vector = ColumnVector.from_values(
            DataType.VARCHAR, ["a-fairly-long-country-name"] * 500
        )
        dict_blob = encode_chunk(vector, Encoding.DICT)
        plain_blob = encode_chunk(vector, Encoding.PLAIN)
        assert len(dict_blob) < len(plain_blob) / 2


class TestStats:
    def test_all_null_column(self):
        vector = ColumnVector.from_values(DataType.INT, [None, None])
        stats = compute_stats(vector)
        assert stats.min_value is None and stats.max_value is None
        assert stats.null_count == 2

    def test_varchar_stats(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["pear", "apple"])
        stats = compute_stats(vector)
        assert stats.min_value == "apple"
        assert stats.max_value == "pear"

    def test_boolean_has_no_minmax(self):
        vector = ColumnVector.from_values(DataType.BOOLEAN, [True, False])
        stats = compute_stats(vector)
        assert stats.min_value is None

    def test_nulls_excluded_from_minmax(self):
        vector = ColumnVector.from_values(DataType.INT, [None, 5, 2])
        stats = compute_stats(vector)
        assert stats.min_value == 2
        assert stats.max_value == 5

    def test_might_contain_range(self):
        stats = ColumnChunkStats(num_rows=10, null_count=0, min_value=5, max_value=10)
        assert stats.might_contain_range(None, None)
        assert stats.might_contain_range(7, 8)
        assert stats.might_contain_range(10, 20)
        assert stats.might_contain_range(0, 5)
        assert not stats.might_contain_range(11, None)
        assert not stats.might_contain_range(None, 4)

    def test_might_contain_range_all_nulls(self):
        stats = ColumnChunkStats(num_rows=5, null_count=5, min_value=None, max_value=None)
        assert not stats.might_contain_range(1, 2)


# -- coded decode, corrupt chunks, and the dictionary encoder ------------------


def string_block(values: list[str]) -> bytes:
    encoded = [value.encode("utf-8") for value in values]
    lengths = np.array([len(value) for value in encoded], dtype=np.int32)
    return struct.pack("<I", len(encoded)) + lengths.tobytes() + b"".join(encoded)


def chunk(num_rows: int, payload: bytes, nulls: bytes = b"") -> bytes:
    return struct.pack("<II", num_rows, len(nulls)) + nulls + payload


def dict_blob(dictionary: list[str], codes, nulls: bytes = b"") -> bytes:
    """A DICT chunk written by hand, so it can be wrong on purpose."""
    strings = string_block(dictionary)
    payload = (
        struct.pack("<I", len(strings))
        + strings
        + np.asarray(codes, dtype=np.int32).tobytes()
    )
    return chunk(len(codes), payload, nulls)


class TestCodedDecode:
    def test_dict_chunk_decodes_to_codes_over_a_distinct_dictionary(self):
        values = ["b", "a", None, "b", "", "a"]
        vector = ColumnVector.from_values(DataType.VARCHAR, values)
        decoded = roundtrip(vector, Encoding.DICT)
        assert decoded.codes.dtype == np.int32
        assert decoded.codes.tolist() == [0, 1, 2, 0, 2, 1]  # first appearance
        assert decoded.dictionary.tolist() == ["b", "a", ""]
        assert decoded._data is None  # no string built by decoding
        assert decoded.to_values() == values

    def test_plain_varchar_chunk_decodes_plain(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["a", "b"])
        assert roundtrip(vector, Encoding.PLAIN).codes is None

    def test_hand_written_blob_is_well_formed(self):
        decoded = decode_chunk(
            dict_blob(["x", "y"], [1, 0, 1]), DataType.VARCHAR, Encoding.DICT
        )
        assert decoded.to_values() == ["y", "x", "y"]


class TestCorruptStringChunks:
    """Each of these decoded to wrong data, or raised something other than
    ``CorruptFileError``, before codes travelled past the decoder."""

    def test_negative_code(self):
        with pytest.raises(CorruptFileError):
            decode_chunk(dict_blob(["x", "y"], [0, -1]), DataType.VARCHAR, Encoding.DICT)

    def test_code_beyond_the_dictionary(self):
        with pytest.raises(CorruptFileError):
            decode_chunk(dict_blob(["x", "y"], [0, 7]), DataType.VARCHAR, Encoding.DICT)

    def test_truncated_code_array(self):
        blob = dict_blob(["x", "y"], [0, 1, 1])
        with pytest.raises(CorruptFileError):
            decode_chunk(blob[:-4], DataType.VARCHAR, Encoding.DICT)

    def test_repeated_dictionary_value(self):
        with pytest.raises(CorruptFileError):
            decode_chunk(dict_blob(["x", "x"], [0, 1]), DataType.VARCHAR, Encoding.DICT)

    def test_plain_string_block_one_byte_short(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["ab", "c"])
        blob = encode_chunk(vector, Encoding.PLAIN)
        with pytest.raises(CorruptFileError):
            decode_chunk(blob[:-1], DataType.VARCHAR, Encoding.PLAIN)

    def test_negative_string_length(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["ab", "c"])
        blob = bytearray(encode_chunk(vector, Encoding.PLAIN))
        struct.pack_into("<i", blob, 8 + 4, -1)  # the first length
        with pytest.raises(CorruptFileError):
            decode_chunk(bytes(blob), DataType.VARCHAR, Encoding.PLAIN)

    def test_plain_string_count_disagrees_with_the_header(self):
        vector = ColumnVector.from_values(DataType.VARCHAR, ["ab", "c"])
        blob = bytearray(encode_chunk(vector, Encoding.PLAIN))
        struct.pack_into("<I", blob, 0, 3)  # header claims one more row
        with pytest.raises(CorruptFileError):
            decode_chunk(bytes(blob), DataType.VARCHAR, Encoding.PLAIN)

    def test_dictionary_encoding_of_a_numeric_column(self):
        with pytest.raises(CorruptFileError):
            decode_chunk(dict_blob(["x"], [0]), DataType.INT, Encoding.DICT)


def sorting_encode_dict(vector: ColumnVector) -> bytes:
    """The dictionary encoder this repo used to ship (sort the rows with
    ``np.unique``, then undo the sort), kept as the byte-identity oracle."""
    values = np.array([str(value) for value in vector.data], dtype=object)
    uniques, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(uniques), dtype=np.int32)
    remap[order] = np.arange(len(uniques), dtype=np.int32)
    codes = remap[inverse.reshape(-1)]
    nulls = vector.nulls if vector.nulls is not None else np.zeros(0, dtype=bool)
    return dict_blob(
        uniques[order].tolist(),
        codes,
        np.packbits(nulls).tobytes() if nulls.any() else b"",
    )


class TestDictionaryEncoder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["", "a", "a\x00", "b", "é", "\U0001F600", "ab"]),
                st.text(max_size=4),
                st.none(),
            ),
            max_size=60,
        )
    )
    def test_blob_is_byte_identical_to_the_sorting_encoder(self, values):
        vector = ColumnVector.from_values(DataType.VARCHAR, values)
        index = string_index(vector)
        expected = sorting_encode_dict(vector)
        assert encode_chunk(vector, Encoding.DICT) == expected
        assert encode_chunk(vector, Encoding.DICT, index) == expected
        assert choose_encoding(vector, index) is choose_encoding(vector)

    def test_a_bounded_index_stops_past_its_limit_and_decides_exactly(self):
        for distinct in (1, 31, 32, 33, 64):
            vector = ColumnVector.from_values(
                DataType.VARCHAR, [f"s{i % distinct}" for i in range(64)]
            )
            full = string_index(vector)
            bounded = string_index(vector, dict_limit(64))
            if len(full) <= dict_limit(64):
                assert bounded == full
            else:
                assert len(bounded) > dict_limit(64)
                assert list(bounded) == list(full)[: len(bounded)]
            assert choose_encoding(vector, bounded) is choose_encoding(vector, full)
        many = ColumnVector.from_values(DataType.VARCHAR, [str(i) for i in range(8192)])
        assert len(string_index(many, dict_limit(8192))) == dict_limit(8192) + 1

    def test_every_generated_varchar_chunk_is_byte_identical(self):
        from repro.workloads.logs import LogsGenerator
        from repro.workloads.tpch import TpchGenerator

        tables = [*TpchGenerator(0.02, 42).tables(), LogsGenerator(5000, 7).table()]
        chunks = dict_chunks = 0
        for table in tables:
            for name, vector in table.data.columns.items():
                if vector.dtype is not DataType.VARCHAR:
                    continue
                for start in range(0, len(vector), 512):
                    piece = vector.slice(start, start + 512)
                    chunks += 1
                    dict_chunks += choose_encoding(piece) is Encoding.DICT
                    assert encode_chunk(piece, Encoding.DICT) == sorting_encode_dict(
                        piece
                    ), (table.name, name, start)
        assert chunks > 50 and dict_chunks > 20

    def test_a_coded_vector_encodes_like_its_plain_twin(self):
        values = ["b", "a", None, "b", "", "a", "c"]
        plain = ColumnVector.from_values(DataType.VARCHAR, values)
        coded = roundtrip(plain, Encoding.DICT).filter(
            np.array([True, False, True, True, True, True, False])
        )
        twin = coded.materialize()
        assert twin.codes is None
        for encoding in (Encoding.PLAIN, Encoding.DICT):
            assert encode_chunk(coded, encoding) == encode_chunk(twin, encoding)
        assert choose_encoding(coded) is choose_encoding(twin)


# -- corrupt fixed-width / RLE / null-mask chunks, and the row selection -------


def rle_payload(runs, values, num_runs=None) -> bytes:
    return (
        struct.pack("<I", len(runs) if num_runs is None else num_runs)
        + np.asarray(runs, dtype=np.int32).tobytes()
        + np.asarray(values, dtype=np.int64).tobytes()
    )


def int_payload(values) -> bytes:
    return np.asarray(values, dtype=np.int32).tobytes()


#: name -> (blob, dtype, encoding).  On the parent each decoded to wrong
#: data, or raised numpy's ``ValueError`` / ``UnicodeDecodeError``; the bad
#: byte is never in row 0, so a selection of row 0 alone excludes it.
CORRUPT_CHUNKS = {
    # 32 rows need a 4-byte mask; a 2-byte one shifted the payload by two.
    "short_null_mask": (
        chunk(32, int_payload(range(32)), nulls=b"\x00\x01"),
        DataType.INT,
        Encoding.PLAIN,
    ),
    "null_mask_longer_than_the_chunk": (
        struct.pack("<II", 32, 4) + b"\x00",
        DataType.INT,
        Encoding.PLAIN,
    ),
    # 2**40 wrapped to 0 through astype(int32).
    "rle_value_out_of_int_range": (
        chunk(4, rle_payload([2, 2], [7, 2**40])),
        DataType.INT,
        Encoding.RLE,
    ),
    "rle_value_out_of_date_range": (
        chunk(4, rle_payload([2, 2], [7, -(2**31) - 1])),
        DataType.DATE,
        Encoding.RLE,
    ),
    "truncated_plain_int": (
        chunk(3, int_payload([1, 2, 3])[:-1]),
        DataType.INT,
        Encoding.PLAIN,
    ),
    "truncated_plain_double": (
        chunk(2, np.array([1.5, 2.5]).tobytes()[:-3]),
        DataType.DOUBLE,
        Encoding.PLAIN,
    ),
    "truncated_plain_boolean": (
        chunk(3, b"\x01\x00"),
        DataType.BOOLEAN,
        Encoding.PLAIN,
    ),
    "truncated_rle": (
        chunk(4, rle_payload([2, 2], [7, 8])[:-5]),
        DataType.BIGINT,
        Encoding.RLE,
    ),
    "rle_without_a_run_count": (chunk(0, b"\x00\x00"), DataType.INT, Encoding.RLE),
    "negative_run": (
        chunk(4, rle_payload([5, -1], [7, 8])),
        DataType.INT,
        Encoding.RLE,
    ),
    "zero_run": (
        chunk(4, rle_payload([4, 0], [7, 8])),
        DataType.INT,
        Encoding.RLE,
    ),
    "oversized_run_count": (
        chunk(4, rle_payload([2, 2], [7, 8], num_runs=2**31)),
        DataType.INT,
        Encoding.RLE,
    ),
    "invalid_utf8_in_a_plain_string": (
        chunk(2, struct.pack("<III", 2, 1, 2) + b"a\xff\xfe"),
        DataType.VARCHAR,
        Encoding.PLAIN,
    ),
    "trailing_bytes_after_plain_ints": (
        chunk(2, int_payload([1, 2]) + b"\x00"),
        DataType.INT,
        Encoding.PLAIN,
    ),
    "trailing_bytes_after_rle": (
        chunk(4, rle_payload([2, 2], [7, 8]) + b"\x00" * 12),
        DataType.INT,
        Encoding.RLE,
    ),
    "trailing_bytes_after_plain_strings": (
        chunk(2, string_block(["a", "b"]) + b"c"),
        DataType.VARCHAR,
        Encoding.PLAIN,
    ),
    "trailing_bytes_after_dict_codes": (
        dict_blob(["x", "y"], [0, 1]) + b"\x00\x00\x00\x00",
        DataType.VARCHAR,
        Encoding.DICT,
    ),
    # The writer never run-length encodes these; the decoder used to cast.
    "rle_of_a_double_column": (
        chunk(4, rle_payload([2, 2], [7, 8])),
        DataType.DOUBLE,
        Encoding.RLE,
    ),
}


class TestCorruptChunks:
    @pytest.mark.parametrize("name", CORRUPT_CHUNKS)
    @pytest.mark.parametrize("rows", [None, [0], []], ids=["all", "row0", "none"])
    def test_raises_corrupt_file_error_whatever_the_selection(self, name, rows):
        blob, dtype, encoding = CORRUPT_CHUNKS[name]
        selected = None if rows is None else np.array(rows, dtype=np.int64)
        with pytest.raises(CorruptFileError):
            decode_chunk(blob, dtype, encoding, selected)

    @pytest.mark.parametrize("rows", [[0], []], ids=["row0", "none"])
    def test_string_corruption_is_seen_under_a_selection(self, rows):
        """PR 20's string cases, each with its bad row left out."""
        selected = np.array(rows, dtype=np.int64)
        for codes in ([0, -1], [0, 7]):
            with pytest.raises(CorruptFileError):
                decode_chunk(
                    dict_blob(["x", "y"], codes), DataType.VARCHAR, Encoding.DICT, selected
                )
        with pytest.raises(CorruptFileError):
            decode_chunk(
                dict_blob(["x", "x"], [0, 1]), DataType.VARCHAR, Encoding.DICT, selected
            )
        overrun = chunk(2, struct.pack("<III", 2, 1, 9) + b"ab")
        with pytest.raises(CorruptFileError):
            decode_chunk(overrun, DataType.VARCHAR, Encoding.PLAIN, selected)

    def test_the_crafted_helpers_write_well_formed_chunks(self):
        good = chunk(4, rle_payload([1, 3], [7, 8]), nulls=b"\x40")
        assert decode_chunk(good, DataType.INT, Encoding.RLE).to_values() == [
            7, None, 8, 8,
        ]
        strings = chunk(2, string_block(["a", "é"]))
        assert decode_chunk(strings, DataType.VARCHAR, Encoding.PLAIN).to_values() == [
            "a", "é",
        ]


CODECS = [
    (DataType.INT, Encoding.PLAIN),
    (DataType.INT, Encoding.RLE),
    (DataType.BIGINT, Encoding.PLAIN),
    (DataType.BIGINT, Encoding.RLE),
    (DataType.DATE, Encoding.PLAIN),
    (DataType.DATE, Encoding.RLE),
    (DataType.DOUBLE, Encoding.PLAIN),
    (DataType.BOOLEAN, Encoding.PLAIN),
    (DataType.VARCHAR, Encoding.PLAIN),
    (DataType.VARCHAR, Encoding.DICT),
]
VALUES = {
    DataType.INT: st.one_of(st.integers(-3, 3), st.integers(-(2**31), 2**31 - 1)),
    DataType.BIGINT: st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    DataType.DATE: st.integers(-3, 3),
    DataType.DOUBLE: st.floats(),
    DataType.BOOLEAN: st.booleans(),
    DataType.VARCHAR: st.one_of(
        st.sampled_from(["", "a", "a\x00", "é", "\U0001F600"]), st.text(max_size=3)
    ),
}


def same_vector(left: ColumnVector, right: ColumnVector) -> bool:
    if left.dtype is not right.dtype or (left.codes is None) != (right.codes is None):
        return False
    if (left.nulls is None) != (right.nulls is None):
        return False
    if left.nulls is not None and left.nulls.tolist() != right.nulls.tolist():
        return False
    if left.data.dtype != right.data.dtype:
        return False
    if left.dtype is DataType.VARCHAR:
        return left.data.tolist() == right.data.tolist()
    return left.data.tobytes() == right.data.tobytes()  # NaN-safe


class TestRowSelection:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_decoding_under_rows_equals_decoding_then_take(self, data):
        dtype, encoding = data.draw(st.sampled_from(CODECS))
        nulls = data.draw(st.sampled_from(["none", "some", "all"]))
        element = {
            "none": VALUES[dtype],
            "some": st.one_of(st.none(), VALUES[dtype]),
            "all": st.none(),
        }[nulls]
        values = data.draw(st.lists(element, max_size=40))
        vector = ColumnVector.from_values(dtype, values)
        blob = encode_chunk(vector, encoding)
        shape = data.draw(st.sampled_from(["empty", "full", "single", "some"]))
        if shape == "empty" or not values:
            rows = []
        elif shape == "full":
            rows = list(range(len(values)))
        elif shape == "single":
            rows = [data.draw(st.integers(0, len(values) - 1))]
        else:
            keep = data.draw(
                st.lists(st.booleans(), min_size=len(values), max_size=len(values))
            )
            rows = [index for index, kept in enumerate(keep) if kept]
        rows = np.array(rows, dtype=np.int64)
        selected = decode_chunk(blob, dtype, encoding, rows)
        assert same_vector(selected, decode_chunk(blob, dtype, encoding).take(rows))
        assert len(selected) == len(rows)
        if selected.codes is None:
            assert selected.data.flags.writeable

    def test_a_dropped_string_is_not_built(self):
        """What the selection is for: only the kept rows are sliced."""
        vector = ColumnVector.from_values(DataType.VARCHAR, ["aa", "bb", "cc", "dd"])
        blob = encode_chunk(vector, Encoding.PLAIN)
        kept = decode_chunk(blob, DataType.VARCHAR, Encoding.PLAIN, np.array([1, 3]))
        assert kept.to_values() == ["bb", "dd"]
        coded = decode_chunk(
            encode_chunk(vector, Encoding.DICT),
            DataType.VARCHAR,
            Encoding.DICT,
            np.array([2]),
        )
        assert coded.codes.tolist() == [2] and len(coded.dictionary) == 4


# -- the writer's stats and string encoder against the functions they replaced --


def old_compute_stats(vector: ColumnVector) -> ColumnChunkStats:
    """``compute_stats`` as shipped before it read the string index."""
    num_rows, null_count = len(vector), vector.null_count
    if num_rows == null_count or vector.dtype is DataType.BOOLEAN:
        return ColumnChunkStats(num_rows, null_count, None, None)
    valid = vector.data if vector.nulls is None else vector.data[~vector.nulls]
    if vector.dtype is DataType.VARCHAR:
        as_str = [str(value) for value in valid]
        return ColumnChunkStats(num_rows, null_count, min(as_str), max(as_str))
    cast = float if vector.dtype is DataType.DOUBLE else int
    return ColumnChunkStats(num_rows, null_count, cast(valid.min()), cast(valid.max()))


def old_encode_plain_strings(vector: ColumnVector) -> bytes:
    """A PLAIN VARCHAR chunk as the per-value encoder wrote it."""
    nulls = b""
    if vector.nulls is not None and vector.nulls.any():
        nulls = np.packbits(vector.nulls).tobytes()
    return chunk(len(vector), string_block([str(value) for value in vector.data]), nulls)


def assert_writes_like_the_old_writer(vector: ColumnVector, where=None) -> None:
    index = string_index(vector) if vector.dtype is DataType.VARCHAR else None
    expected = old_compute_stats(vector)
    assert compute_stats(vector) == expected, where
    assert compute_stats(vector, index) == expected, where
    if index is not None:
        plain = old_encode_plain_strings(vector)
        assert encode_chunk(vector, Encoding.PLAIN) == plain, where
        assert encode_chunk(vector, Encoding.PLAIN, index) == plain, where
        assert encode_chunk(vector, Encoding.DICT, index) == sorting_encode_dict(
            vector
        ), where


class TestWriterOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["", "a", "a\x00", "b", "é", "\U0001F600", "~", "\x7f"]),
                st.text(max_size=4),
                st.none(),
            ),
            max_size=60,
        )
    )
    def test_varchar_chunks_are_byte_identical(self, values):
        assert_writes_like_the_old_writer(
            ColumnVector.from_values(DataType.VARCHAR, values)
        )

    def test_every_generated_chunk_is_byte_identical(self):
        from repro.workloads.logs import LogsGenerator
        from repro.workloads.tpch import TpchGenerator

        tables = [*TpchGenerator(0.02, 42).tables(), LogsGenerator(5000, 7).table()]
        chunks = 0
        for table in tables:
            for name, vector in table.data.columns.items():
                for start in range(0, len(vector), 512):
                    chunks += 1
                    assert_writes_like_the_old_writer(
                        vector.slice(start, start + 512), (table.name, name, start)
                    )
        assert chunks > 100

    def test_a_null_slots_filler_is_not_a_statistic(self):
        """NULL slots hold ``""``, which is in the index and sorts first."""
        vector = ColumnVector.from_values(DataType.VARCHAR, ["m", None, "z"])
        stats = compute_stats(vector, string_index(vector))
        assert (stats.min_value, stats.max_value) == ("m", "z")
