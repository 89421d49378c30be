"""Unit tests for the Pixels file format (writer/reader/footer)."""

import hashlib

import numpy as np
import pytest

from repro.errors import CorruptFileError, NoSuchColumnError
from repro.storage.file_format import FORMAT_VERSION, FileFooter, PixelsReader, PixelsWriter
from repro.storage.object_store import ObjectStore
from repro.storage.types import ColumnVector, DataType

SCHEMA = [("id", DataType.BIGINT), ("name", DataType.VARCHAR), ("price", DataType.DOUBLE)]


@pytest.fixture
def store():
    s = ObjectStore()
    s.create_bucket("b")
    return s


def write_sample(store, key="t/part-0.pxl", groups=2, rows=4):
    writer = PixelsWriter(store, "b", key, SCHEMA)
    for g in range(groups):
        base = g * rows
        writer.write_row_group(
            {
                "id": ColumnVector.from_values(
                    DataType.BIGINT, [base + i for i in range(rows)]
                ),
                "name": ColumnVector.from_values(
                    DataType.VARCHAR, [f"n{base + i}" for i in range(rows)]
                ),
                "price": ColumnVector.from_values(
                    DataType.DOUBLE, [float(base + i) * 1.5 for i in range(rows)]
                ),
            }
        )
    writer.close()
    return key


class TestWriter:
    def test_requires_schema(self, store):
        with pytest.raises(ValueError):
            PixelsWriter(store, "b", "k", [])

    def test_rejects_wrong_columns(self, store):
        writer = PixelsWriter(store, "b", "k", SCHEMA)
        with pytest.raises(ValueError, match="row group columns"):
            writer.write_row_group(
                {"id": ColumnVector.from_values(DataType.BIGINT, [1])}
            )

    def test_rejects_ragged_group(self, store):
        writer = PixelsWriter(store, "b", "k", SCHEMA)
        with pytest.raises(ValueError, match="ragged"):
            writer.write_row_group(
                {
                    "id": ColumnVector.from_values(DataType.BIGINT, [1, 2]),
                    "name": ColumnVector.from_values(DataType.VARCHAR, ["a"]),
                    "price": ColumnVector.from_values(DataType.DOUBLE, [1.0, 2.0]),
                }
            )

    def test_rejects_wrong_dtype(self, store):
        writer = PixelsWriter(store, "b", "k", SCHEMA)
        with pytest.raises(ValueError, match="expected"):
            writer.write_row_group(
                {
                    "id": ColumnVector.from_values(DataType.INT, [1]),
                    "name": ColumnVector.from_values(DataType.VARCHAR, ["a"]),
                    "price": ColumnVector.from_values(DataType.DOUBLE, [1.0]),
                }
            )

    def test_double_close_rejected(self, store):
        writer = PixelsWriter(store, "b", "k", SCHEMA)
        writer.close()
        with pytest.raises(ValueError):
            writer.close()

    def test_write_after_close_rejected(self, store):
        writer = PixelsWriter(store, "b", "k", SCHEMA)
        writer.close()
        with pytest.raises(ValueError):
            writer.write_row_group({})


class TestReader:
    def test_full_roundtrip(self, store):
        key = write_sample(store)
        reader = PixelsReader(store, "b", key)
        assert reader.num_rows == 8
        data = reader.read()
        assert data["id"].to_values() == list(range(8))
        assert data["name"].to_values() == [f"n{i}" for i in range(8)]
        assert data["price"].to_values() == [i * 1.5 for i in range(8)]

    def test_schema_exposed(self, store):
        key = write_sample(store)
        reader = PixelsReader(store, "b", key)
        assert reader.schema == SCHEMA
        assert reader.column_type("price") is DataType.DOUBLE
        with pytest.raises(NoSuchColumnError):
            reader.column_type("nope")

    def test_projection_reads_fewer_bytes(self, store):
        key = write_sample(store, groups=4, rows=100)
        before = store.metrics.snapshot()
        PixelsReader(store, "b", key).read(columns=["id"])
        only_id = store.metrics.delta(before).bytes_read
        before = store.metrics.snapshot()
        PixelsReader(store, "b", key).read()
        all_columns = store.metrics.delta(before).bytes_read
        assert only_id < all_columns

    def test_projection_unknown_column(self, store):
        key = write_sample(store)
        with pytest.raises(NoSuchColumnError):
            PixelsReader(store, "b", key).read(columns=["ghost"])

    def test_zone_map_pruning_skips_groups(self, store):
        key = write_sample(store, groups=4, rows=10)  # ids 0..39, 10 per group
        reader = PixelsReader(store, "b", key)
        data = reader.read(columns=["id"], ranges={"id": (35, None)})
        # Only the last group (ids 30..39) can contain ids >= 35.
        assert data["id"].to_values() == list(range(30, 40))

    def test_pruning_reads_fewer_bytes(self, store):
        key = write_sample(store, groups=8, rows=50)
        before = store.metrics.snapshot()
        PixelsReader(store, "b", key).read(columns=["id"], ranges={"id": (390, None)})
        pruned = store.metrics.delta(before).bytes_read
        before = store.metrics.snapshot()
        PixelsReader(store, "b", key).read(columns=["id"])
        full = store.metrics.delta(before).bytes_read
        assert pruned < full

    def test_all_groups_pruned_returns_empty(self, store):
        key = write_sample(store)
        data = PixelsReader(store, "b", key).read(
            columns=["id"], ranges={"id": (1000, None)}
        )
        assert len(data["id"]) == 0

    def test_range_on_unstated_column_is_ignored(self, store):
        key = write_sample(store)
        data = PixelsReader(store, "b", key).read(
            columns=["id"], ranges={"ghost": (0, 1)}
        )
        assert len(data["id"]) == 8


    def test_a_range_on_a_chunk_without_min_max_prunes_only_all_null_groups(
        self, store
    ):
        """BOOLEAN chunks carry no min/max: a pushed bound used to read that
        as "proven empty" and ``WHERE flag = TRUE`` returned nothing."""
        writer = PixelsWriter(store, "b", "f/part-0.pxl", [("f", DataType.BOOLEAN)])
        for values in ([True, False], [None, None], [False, None]):
            writer.write_row_group(
                {"f": ColumnVector.from_values(DataType.BOOLEAN, values)}
            )
        writer.close()
        reader = PixelsReader(store, "b", "f/part-0.pxl")
        assert reader.surviving_group_indexes({"f": (True, True)}) == [0, 2]
        assert reader.read(ranges={"f": (True, True)})["f"].to_values() == [
            True, False, False, None,
        ]


class TestSelection:
    """``iter_groups`` / ``read_group`` under a row selection."""

    @staticmethod
    def big_ids(vectors):
        return vectors["id"].data % 3 == 0

    def test_groups_hold_only_selected_rows_in_projection_order(self, store):
        key = write_sample(store, groups=3, rows=4)  # ids 0..11
        reader = PixelsReader(store, "b", key)
        selection = (["id"], self.big_ids)
        groups = list(reader.iter_groups(["name", "id"], selection=selection))
        assert [list(group) for group in groups] == [["name", "id"]] * 3
        assert [group["id"].to_values() for group in groups] == [[0, 3], [6], [9]]
        assert [group["name"].to_values() for group in groups] == [
            ["n0", "n3"], ["n6"], ["n9"],
        ]
        assert reader.read_group(1, ["price"], selection)["price"].to_values() == [9.0]

    def test_selection_changes_no_accounting(self):
        totals = []
        for selection in (None, (["id"], self.big_ids)):
            store = ObjectStore()
            store.create_bucket("b")
            key = write_sample(store, groups=3, rows=4)
            reader = PixelsReader(store, "b", key)
            list(reader.iter_groups(["id", "name"], selection=selection))
            totals.append(store.metrics.snapshot())
        assert totals[0] == totals[1]

    def test_all_true_and_all_false_masks(self, store):
        key = write_sample(store, groups=2, rows=4)
        reader = PixelsReader(store, "b", key)
        for keep, expected in ((np.ones, [0, 1, 2, 3]), (np.zeros, [])):
            selection = (["id"], lambda vectors: keep(len(vectors["id"]), dtype=bool))
            group = reader.read_group(0, ["name", "id"], selection)
            assert group["id"].to_values() == expected
            assert len(group["name"]) == len(expected)

    def test_a_mask_of_the_wrong_length_is_rejected(self, store):
        """A predicate over no column yields an empty — vacuously all-true —
        mask; the reader refuses it instead of returning every row."""
        key = write_sample(store)
        reader = PixelsReader(store, "b", key)
        selection = ([], lambda vectors: np.zeros(0, dtype=bool))
        with pytest.raises(ValueError, match="mask"):
            reader.read_group(0, ["id"], selection)

    def test_a_corrupt_chunk_fails_whatever_the_mask_keeps(self, store):
        key = write_sample(store, groups=1, rows=4)
        footer = PixelsReader(store, "b", key).footer
        chunk = footer.row_groups[0].chunks["name"]
        blob = bytearray(store.get("b", key).data)
        blob[chunk.offset + chunk.length - 1] = 0xFF  # last byte of "n3"
        store.put("b", key, bytes(blob))
        reader = PixelsReader(store, "b", key)
        selection = (["id"], lambda vectors: vectors["id"].data == 0)
        with pytest.raises(CorruptFileError):
            reader.read_group(0, ["name", "id"], selection)


class TestIterGroupsCacheAccounting:
    """Metrics-delta accounting of ``iter_groups`` under buffer-pool hits.

    The billing basis is *logical* bytes: a warm re-scan served entirely
    from the pool must account the full logical byte count while issuing
    zero GETs and reading zero physical bytes."""

    def warm_reader(self, store, groups=4, rows=64):
        from repro.storage.cache import BufferPool

        key = write_sample(store, groups=groups, rows=rows)
        pool = BufferPool(store)
        reader = PixelsReader(store, "b", key, cache=pool)
        for _ in reader.iter_groups():  # fill the pool (cold pass)
            pass
        return reader

    def test_warm_iteration_is_logical_bytes_only(self, store):
        reader = self.warm_reader(store)
        before = store.metrics.snapshot()
        rows = sum(len(group["id"]) for group in reader.iter_groups())
        delta = store.metrics.delta(before)
        assert rows == 4 * 64
        assert delta.get_requests == 0
        assert delta.bytes_read == 0
        assert delta.chunk_cache_hits > 0
        assert delta.logical_bytes_scanned > 0

    def test_warm_logical_bytes_equal_cold_logical_bytes(self, store):
        key = write_sample(store, groups=4, rows=64)
        from repro.storage.cache import BufferPool

        pool = BufferPool(store)
        reader = PixelsReader(store, "b", key, cache=pool)
        before_cold = store.metrics.snapshot()
        for _ in reader.iter_groups(["id", "price"]):
            pass
        cold = store.metrics.delta(before_cold)
        before_warm = store.metrics.snapshot()
        for _ in reader.iter_groups(["id", "price"]):
            pass
        warm = store.metrics.delta(before_warm)
        assert cold.get_requests > 0
        assert warm.get_requests == 0
        assert warm.logical_bytes_scanned == cold.logical_bytes_scanned
        assert warm.bytes_read == 0
        # Request-class accounting: the reader was constructed before the
        # cold snapshot, so every cold GET here is a chunk read.
        assert cold.chunk_get_requests == cold.get_requests
        assert warm.chunk_get_requests == 0

    def test_footer_gets_are_classed(self, store):
        key = write_sample(store)
        before = store.metrics.snapshot()
        PixelsReader(store, "b", key)
        delta = store.metrics.delta(before)
        assert delta.footer_get_requests == 2  # tail probe + footer blob
        assert delta.footer_get_requests == delta.get_requests
        assert delta.chunk_get_requests == 0

    def test_abandoned_warm_iterator_accounts_partially(self, store):
        reader = self.warm_reader(store)
        before = store.metrics.snapshot()
        iterator = reader.iter_groups(["id"])
        next(iterator)  # pull exactly one group, then abandon
        partial = store.metrics.delta(before)
        for _ in iterator:
            pass
        full = store.metrics.delta(before)
        assert 0 < partial.logical_bytes_scanned < full.logical_bytes_scanned
        assert partial.chunk_cache_hits == 1


class TestCorruption:
    def test_truncated_file(self, store):
        store.put("b", "bad", b"PI")
        with pytest.raises(CorruptFileError):
            PixelsReader(store, "b", "bad")

    def test_bad_trailing_magic(self, store):
        key = write_sample(store)
        blob = store.get("b", key).data
        store.put("b", "bad", blob[:-4] + b"XXXX")
        with pytest.raises(CorruptFileError, match="magic"):
            PixelsReader(store, "b", "bad")

    def test_garbage_footer(self, store):
        key = write_sample(store)
        blob = bytearray(store.get("b", key).data)
        # Corrupt bytes inside the footer region.
        blob[-30:-10] = b"\xff" * 20
        store.put("b", "bad", bytes(blob))
        with pytest.raises(CorruptFileError):
            PixelsReader(store, "b", "bad")

    def test_footer_version_check(self):
        footer = FileFooter(0, [("a", DataType.INT)], [])
        blob = footer.to_bytes().replace(
            f'"version":{FORMAT_VERSION}'.encode(), b'"version":99'
        )
        with pytest.raises(CorruptFileError, match="version"):
            FileFooter.from_bytes(blob)


class TestPropertyRoundtripThroughFiles:
    """Whole-table round trips through the file format, hypothesis-driven."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    ROWS = st.lists(
        st.tuples(
            st.one_of(st.integers(-(2**40), 2**40), st.none()),
            st.one_of(st.text(max_size=12), st.none()),
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.none(),
            ),
            st.one_of(st.booleans(), st.none()),
            st.one_of(st.integers(-10000, 20000), st.none()),  # DATE days
        ),
        max_size=80,
    )

    @settings(max_examples=40, deadline=None)
    @given(rows=ROWS)
    def test_any_table_roundtrips(self, rows):
        from repro.storage.table import TableData, TableReader, TableWriter

        schema = [
            ("big", DataType.BIGINT),
            ("text", DataType.VARCHAR),
            ("real", DataType.DOUBLE),
            ("flag", DataType.BOOLEAN),
            ("day", DataType.DATE),
        ]
        store = ObjectStore()
        store.create_bucket("b")
        table = TableData.from_rows(schema, rows)
        TableWriter(store, "b", "t", rows_per_group=16).write(table)
        result = TableReader(store, "b", "t").scan()
        assert result.data.to_rows() == table.to_rows()

    @settings(max_examples=30, deadline=None)
    @given(
        rows=ROWS,
        low=st.integers(-(2**40), 2**40),
    )
    def test_pruned_scan_is_exact_superset_of_matches(self, rows, low):
        """Zone-map pruning may keep extra rows (groups are coarse) but
        must never lose a matching one."""
        from repro.storage.table import TableData, TableReader, TableWriter

        schema = [("big", DataType.BIGINT), ("text", DataType.VARCHAR)]
        store = ObjectStore()
        store.create_bucket("b")
        table = TableData.from_rows(schema, [(r[0], r[1]) for r in rows])
        TableWriter(store, "b", "t", rows_per_group=8).write(table)
        result = TableReader(store, "b", "t").scan(ranges={"big": (low, None)})
        kept = result.data.column("big").to_values()
        expected = [v for v, _ in [(r[0], r[1]) for r in rows] if v is not None and v >= low]
        for value in expected:
            assert value in kept


class TestWriterBytes:
    """The writer's shortcuts (a string index that stops hashing at the DICT
    threshold, run boundaries shared by the RLE decision and encoder) leave
    every file byte where the full index and a second ``np.diff`` put it."""

    #: SHA-256 of :meth:`write` as the writer produced it before either
    #: shortcut existed.
    DIGEST = "29c943efc77f1230d631d0ee6d747681cd10dc1a0329d4602054eb41392510f2"

    SHAPES = {
        "dict": lambda i: f"k{i % 5}",
        "ascii": lambda i: f"10.0.{i // 256}.{i % 256}",
        "non_ascii": lambda i: f"é{i}\U0001F600" if i % 3 else f"ü{i % 7}",
        "nulls": lambda i: None if i % 4 == 0 else f"v{i % 40}",
        "at_limit": lambda i: f"t{i % 32}",
        "past_limit": lambda i: f"t{i % 33}",
        "late_distinct": lambda i: "same" if i < 16 else f"u{i}",
    }

    def write(self, store):
        schema = [
            ("s", DataType.VARCHAR),
            ("n", DataType.BIGINT),
            ("d", DataType.DATE),
            ("x", DataType.DOUBLE),
        ]
        writer = PixelsWriter(store, "b", "f", schema)
        rows = 64
        for make in self.SHAPES.values():
            writer.write_row_group({
                "s": ColumnVector.from_values(
                    DataType.VARCHAR, [make(i) for i in range(rows)]
                ),
                "n": ColumnVector.from_values(
                    DataType.BIGINT, [None if i % 9 == 0 else i // 10 for i in range(rows)]
                ),
                "d": ColumnVector.from_values(
                    DataType.DATE, [9000 + i // 16 for i in range(rows)]
                ),
                "x": ColumnVector.from_values(DataType.DOUBLE, [i * 0.5 for i in range(rows)]),
            })
        rows = 8192  # the bounded index takes several steps here
        writer.write_row_group({
            "s": ColumnVector.from_values(
                DataType.VARCHAR, [f"ip-{i // 2 if i < 4000 else i}" for i in range(rows)]
            ),
            "n": ColumnVector.from_values(DataType.BIGINT, [i // 100 for i in range(rows)]),
            "d": ColumnVector.from_values(
                DataType.DATE, [9000 + i // 1000 for i in range(rows)]
            ),
            "x": ColumnVector.from_values(
                DataType.DOUBLE, [None if i % 5 == 0 else float(i) for i in range(rows)]
            ),
        })
        writer.close()
        return store.get("b", "f").data

    def test_file_is_byte_identical_to_the_unbounded_writer(self, store):
        blob = self.write(store)
        assert hashlib.sha256(blob).hexdigest() == self.DIGEST
        footer = PixelsReader(store, "b", "f").footer
        strings = [group.chunks["s"] for group in footer.row_groups]
        assert [chunk.encoding.value for chunk in strings] == [
            "dict", "plain", "plain", "dict", "dict", "plain", "plain", "plain"
        ]
        assert strings[3].stats.null_count == 16
        assert {group.chunks["d"].encoding.value for group in footer.row_groups} == {"rle"}
        assert {group.chunks["n"].encoding.value for group in footer.row_groups} == {
            "rle", "plain"
        }

    def test_a_partial_index_never_reaches_the_statistics(self, store, monkeypatch):
        import repro.storage.file_format as file_format

        handed = []

        def checked(vector, index=None):
            if index is not None:
                assert list(index) == list(dict.fromkeys(vector.data.tolist()))
            handed.append(index is not None)
            return compute_stats(vector, index)

        compute_stats = file_format.compute_stats
        monkeypatch.setattr(file_format, "compute_stats", checked)
        assert hashlib.sha256(self.write(store)).hexdigest() == self.DIGEST
        assert any(handed) and not all(handed)
