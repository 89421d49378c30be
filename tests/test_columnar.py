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


def dict_blob(dictionary: list[str], codes, nulls: bytes = b"") -> bytes:
    """A DICT chunk written by hand, so it can be wrong on purpose."""
    strings = string_block(dictionary)
    payload = (
        struct.pack("<I", len(strings))
        + strings
        + np.asarray(codes, dtype=np.int32).tobytes()
    )
    return struct.pack("<II", len(codes), len(nulls)) + nulls + payload


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
