"""Tests for the buffer pool (repro.storage.cache) and read coalescing.

The load-bearing property is the **billing invariant**: query results and
billed bytes-scanned are identical with the pool on or off — caching only
reduces GET requests and modelled latency.  Also covered: LRU eviction
under a tiny byte budget, etag invalidation after put/delete, the
range-GET coalescing that collapses a cold row-group read to ~1 GET, and
the entry lifecycle — stored bytes on a miss, a read-only decoded vector
from the first hit on, charged its decoded size.
"""

import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.storage import (
    BufferPool,
    CacheConfig,
    DataType,
    ObjectStore,
    TableData,
    TableReader,
    TableWriter,
)
from repro.errors import CorruptFileError
from repro.storage.cache import decoded_size
from repro.storage.catalog import Catalog
from repro.storage.columnar import Encoding, decode_chunk, encode_chunk
from repro.storage.file_format import PixelsReader
from repro.storage.types import ColumnVector
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

QUERY_NAMES = sorted(TPCH_QUERIES)

#: Twelve BIGINT values stored PLAIN: an 8-byte header and 96 bytes of
#: values, which decode to a 96-byte vector.
VALUES = list(range(12))
BLOB = encode_chunk(ColumnVector.from_values(DataType.BIGINT, VALUES), Encoding.PLAIN)
SIZE = len(BLOB)
DECODE = partial(decode_chunk, dtype=DataType.BIGINT, encoding=Encoding.PLAIN)


@pytest.fixture(scope="module")
def tpch_env():
    """A small TPC-H dataset with multiple files and row groups per table."""
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(
        store,
        catalog,
        "tpch",
        TpchGenerator(scale=0.02).tables(),
        rows_per_file=4096,
        rows_per_group=1024,
    )
    return store, catalog


def run_query(store, catalog, sql, cache=None):
    plan = Optimizer().optimize(Planner(catalog, "tpch").plan_sql(sql))
    source = ObjectStoreSource(store, cache=cache)
    return QueryExecutor(source).execute(plan)


@pytest.fixture
def chunked_table():
    """A 3-column table with a known layout: 4 files x 10 row groups."""
    store = ObjectStore()
    store.create_bucket("b")
    schema = [
        ("k", DataType.BIGINT),
        ("v", DataType.VARCHAR),
        ("x", DataType.DOUBLE),
    ]
    rows = [(i, f"v{i}", float(i)) for i in range(20000)]
    table = TableData.from_rows(schema, rows)
    TableWriter(store, "b", "t", rows_per_file=5000, rows_per_group=500).write(
        table
    )
    return store, schema, table


class TestBillingInvariant:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_results_and_billed_bytes_identical_cache_on_off(
        self, tpch_env, name
    ):
        store, catalog = tpch_env
        sql = TPCH_QUERIES[name]
        baseline = run_query(store, catalog, sql)
        pool = BufferPool(store)
        cold = run_query(store, catalog, sql, cache=pool)
        warm = run_query(store, catalog, sql, cache=pool)
        assert cold.rows() == baseline.rows()
        assert warm.rows() == baseline.rows()
        # Billed bytes are logical: the pool never changes them.
        assert cold.stats.bytes_scanned == baseline.stats.bytes_scanned
        assert warm.stats.bytes_scanned == baseline.stats.bytes_scanned

    @given(
        name=st.sampled_from(QUERY_NAMES),
        budget=st.integers(min_value=0, max_value=256 * 1024),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_chunk_budget_preserves_results_and_billing(
        self, tpch_env, name, budget
    ):
        """Property: whatever the pool budget (including 0), results and
        billed bytes match the uncached run."""
        store, catalog = tpch_env
        sql = TPCH_QUERIES[name]
        baseline = run_query(store, catalog, sql)
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=budget))
        cached = run_query(store, catalog, sql, cache=pool)
        rerun = run_query(store, catalog, sql, cache=pool)
        assert cached.rows() == baseline.rows()
        assert rerun.rows() == baseline.rows()
        assert cached.stats.bytes_scanned == baseline.stats.bytes_scanned
        assert rerun.stats.bytes_scanned == baseline.stats.bytes_scanned

    def test_scan_billed_bytes_exclude_coalescing_gap_bytes(
        self, chunked_table
    ):
        """Projecting 2 of 3 columns coalesces across the gap left by the
        middle column; the gap bytes travel but are never billed."""
        store, _, _ = chunked_table
        wide_gap = TableReader(
            store, "b", "t", cache=BufferPool(store)
        )
        narrow = TableReader(
            store,
            "b",
            "t",
            cache=BufferPool(store, CacheConfig(max_coalesce_gap_bytes=0)),
        )
        before = store.metrics.snapshot()
        r_gap = wide_gap.scan(columns=["k", "x"])
        mid = store.metrics.snapshot()
        r_exact = narrow.scan(columns=["k", "x"])
        after = store.metrics.snapshot()
        assert r_gap.data.to_rows() == r_exact.data.to_rows()
        # Billing identical; physical transfer strictly larger when gaps
        # are bridged (the "v" column chunks sit between "k" and "x").
        assert r_gap.bytes_scanned == r_exact.bytes_scanned
        gap_read = mid.delta(before).bytes_read
        exact_read = after.delta(mid).bytes_read
        assert gap_read > exact_read
        assert r_gap.get_requests < r_exact.get_requests


class TestCoalescing:
    def test_cold_scan_is_one_get_per_row_group(self, chunked_table):
        store, _, _ = chunked_table
        # 4 files x 10 groups; chunks within a group are contiguous, so
        # coalescing folds each group's 3 chunks into one ranged GET.
        # Plus 2 footer GETs per file (tail + footer blob).
        result = TableReader(store, "b", "t").scan()
        assert result.get_requests == 40 + 2 * 4

    def test_disabling_coalescing_pays_one_get_per_chunk(self, chunked_table):
        store, _, _ = chunked_table
        pool = BufferPool(store, CacheConfig(max_coalesce_gap_bytes=0))
        result = TableReader(store, "b", "t", cache=pool).scan()
        # 3 column chunks per group are contiguous (gap 0), so they still
        # merge at gap<=0; projecting disjoint columns must not.
        assert result.get_requests == 40 + 2 * 4
        pool.clear()
        split = TableReader(store, "b", "t", cache=pool).scan(
            columns=["k", "x"]
        )
        assert split.get_requests == 2 * 40 + 2 * 4

    def test_warm_scan_issues_5x_fewer_gets(self, chunked_table):
        store, _, table = chunked_table
        pool = BufferPool(store)
        reader = TableReader(store, "b", "t", cache=pool)
        cold = reader.scan()
        warm = reader.scan()
        assert warm.data.to_rows() == cold.data.to_rows() == table.to_rows()
        assert cold.get_requests >= 5 * max(warm.get_requests, 1)
        assert warm.get_requests == 0  # fully served from the pool
        assert warm.cache_hits > 0 and warm.cache_misses == 0
        assert warm.latency_s < cold.latency_s

    def test_footer_cache_skips_reopen_gets(self, chunked_table):
        store, _, _ = chunked_table
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=0))
        reader = TableReader(store, "b", "t", cache=pool)
        cold = reader.scan()
        warm = reader.scan()
        # Chunk pool disabled: only the 2-per-file footer GETs disappear.
        assert cold.get_requests - warm.get_requests == 2 * 4
        assert warm.bytes_scanned == cold.bytes_scanned


class TestLruEviction:
    def test_budget_is_enforced_with_lru_eviction(self):
        store = ObjectStore()
        store.create_bucket("b")
        for i in range(8):
            store.put("b", f"o{i}", BLOB)
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=SIZE * 5 // 2))
        for i in range(8):
            pool.put_chunk("b", f"o{i}", 0, BLOB)
        assert pool.cached_chunk_bytes <= SIZE * 5 // 2
        assert pool.cached_chunks == 2
        assert store.metrics.chunk_cache_evictions == 6
        # LRU: the two most recently inserted survive.
        assert pool.chunk("b", "o7", 0, SIZE, DECODE) is not None
        assert pool.chunk("b", "o6", 0, SIZE, DECODE) is not None
        assert pool.chunk("b", "o0", 0, SIZE, DECODE) is None

    def test_lookup_refreshes_recency(self):
        store = ObjectStore()
        store.create_bucket("b")
        for name in ("a", "b", "c"):
            store.put("b", name, BLOB)
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=2 * SIZE))
        pool.put_chunk("b", "a", 0, BLOB)
        pool.put_chunk("b", "b", 0, BLOB)
        assert pool.chunk("b", "a", 0, SIZE, DECODE) is not None  # touch "a"
        pool.put_chunk("b", "c", 0, BLOB)  # evicts LRU = "b"
        assert pool.chunk("b", "a", 0, SIZE, DECODE) is not None
        assert pool.chunk("b", "b", 0, SIZE, DECODE) is None

    def test_oversized_payload_is_not_admitted(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "big", b"x" * 1000)
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=500))
        pool.put_chunk("b", "big", 0, b"x" * 1000)
        assert pool.cached_chunks == 0
        assert store.metrics.chunk_cache_evictions == 0

    def test_tiny_budget_scan_stays_correct(self, chunked_table):
        store, _, table = chunked_table
        pool = BufferPool(store, CacheConfig(chunk_budget_bytes=4096))
        reader = TableReader(store, "b", "t", cache=pool)
        first = reader.scan()
        second = reader.scan()
        assert first.data.to_rows() == table.to_rows()
        assert second.data.to_rows() == table.to_rows()
        assert pool.cached_chunk_bytes <= 4096
        assert second.cache_evictions > 0  # churned under pressure


class TestEtagInvalidation:
    def test_overwrite_invalidates_cached_chunk(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k", BLOB)
        pool = BufferPool(store)
        pool.put_chunk("b", "k", 0, BLOB)
        assert pool.chunk("b", "k", 0, SIZE, DECODE).to_values() == VALUES
        store.put("b", "k", encode_chunk(ColumnVector.from_values(
            DataType.BIGINT, [-value for value in VALUES]), Encoding.PLAIN
        ))
        assert pool.chunk("b", "k", 0, SIZE, DECODE) is None
        # Invalidation counts as a miss, not a budget eviction.
        assert store.metrics.chunk_cache_evictions == 0
        assert store.metrics.chunk_cache_misses == 1

    def test_delete_invalidates_cached_chunk(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "k", BLOB)
        pool = BufferPool(store)
        pool.put_chunk("b", "k", 0, BLOB)
        store.delete("b", "k")
        assert pool.chunk("b", "k", 0, SIZE, DECODE) is None
        assert pool.cached_chunks == 0

    def test_warm_pool_never_serves_stale_table(self, chunked_table):
        store, schema, _ = chunked_table
        pool = BufferPool(store)
        reader = TableReader(store, "b", "t", cache=pool)
        reader.scan()  # warm the pool on the original data
        fresh = TableData.from_rows(
            schema, [(i, "new", -1.0) for i in range(20000)]
        )
        TableWriter(
            store, "b", "t", rows_per_file=5000, rows_per_group=500
        ).write(fresh)
        rescan = reader.scan()
        assert rescan.data.to_rows() == fresh.to_rows()
        assert rescan.cache_hits == 0  # every warm entry went stale

    def test_footer_invalidated_on_overwrite(self):
        store = ObjectStore()
        store.create_bucket("b")
        store.put("b", "f", b"v1")
        pool = BufferPool(store)
        pool.put_footer("b", "f", {"version": 1}, 10)
        assert pool.footer("b", "f") == ({"version": 1}, 10)
        store.put("b", "f", b"v2")
        assert pool.footer("b", "f") is None


def pooled_chunk(store, key, vector, encoding=Encoding.PLAIN, budget=None):
    """A pool holding ``vector``'s chunk as bytes (stored under ``key``),
    and the lookup that reads it back."""
    blob = encode_chunk(vector, encoding)
    store.put("b", key, blob)
    config = CacheConfig() if budget is None else CacheConfig(chunk_budget_bytes=budget)
    pool = BufferPool(store, config)
    pool.put_chunk("b", key, 0, blob)
    decode = partial(decode_chunk, dtype=vector.dtype, encoding=encoding)
    return pool, lambda: pool.chunk("b", key, 0, len(blob), decode)


def pooled_values(pool):
    """What each chunk entry holds: stored bytes or the decoded vector."""
    return [value for _, value, _ in pool._chunks.values()]


@pytest.fixture
def store():
    store = ObjectStore()
    store.create_bucket("b")
    return store


class TestDecodedEntries:
    """Stored bytes on a miss; the whole decoded vector, read-only and
    charged its decoded size, from the entry's first hit on."""

    def test_first_hit_promotes_and_recharges(self, store):
        pool, lookup = pooled_chunk(
            store, "k", ColumnVector.from_values(DataType.BIGINT, VALUES)
        )
        assert pool.cached_chunk_bytes == SIZE
        assert isinstance(pooled_values(pool)[0], bytes)
        first = lookup()
        assert first.to_values() == VALUES
        (entry,) = pooled_values(pool)
        assert entry is first  # a later hit hands out the same vector
        assert lookup() is first
        assert pool.cached_chunk_bytes == decoded_size(first) == 8 * len(VALUES)
        assert store.metrics.chunk_cache_hits == 2
        assert store.metrics.chunk_cache_misses == 0

    @pytest.mark.parametrize(
        "values", [["a", "bc", "", "a\x00"], ["é", "a", "\U0001F600", ""], [None, "x"]]
    )
    def test_decoded_size_follows_the_documented_rule(self, values):
        plain = ColumnVector.from_values(DataType.VARCHAR, values)
        strings = plain.data.nbytes + sum(map(sys.getsizeof, plain.data.tolist()))
        nulls = 0 if plain.nulls is None else plain.nulls.nbytes
        assert decoded_size(plain) == strings + nulls
        coded = decode_chunk(
            encode_chunk(plain, Encoding.DICT), DataType.VARCHAR, Encoding.DICT
        )
        dictionary = coded.dictionary
        assert decoded_size(coded) == (
            coded.codes.nbytes + dictionary.nbytes
            + sum(map(sys.getsizeof, dictionary.tolist())) + nulls
        )
        fixed = ColumnVector.from_values(DataType.INT, [1, None, 3])
        assert decoded_size(fixed) == 3 * 4 + 3

    @pytest.mark.parametrize("encoding", [Encoding.PLAIN, Encoding.DICT])
    def test_pooled_arrays_cannot_be_written(self, store, encoding):
        values = ["a", None, "b", "a", None, "b"]
        pool, lookup = pooled_chunk(
            store, "k", ColumnVector.from_values(DataType.VARCHAR, values), encoding
        )
        lookup()
        vector = lookup()
        assert vector.to_values() == values
        arrays = {"data": vector.data, "nulls": vector.nulls}
        if encoding is Encoding.DICT:
            arrays = {"codes": vector.codes, "dictionary": vector.dictionary,
                      "nulls": vector.nulls}
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
        assert lookup().to_values() == values

    def test_fixed_width_data_cannot_be_written(self, store):
        values = [1, None, 3]
        _, lookup = pooled_chunk(
            store, "k", ColumnVector.from_values(DataType.BIGINT, values)
        )
        lookup()
        vector = lookup()
        for array in (vector.data, vector.nulls):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
        assert lookup().to_values() == values

    def test_warm_scan_hands_out_read_only_vectors(self, chunked_table):
        store, _, table = chunked_table
        pool = BufferPool(store)
        reader = TableReader(store, "b", "t", cache=pool)
        key = reader.file_keys()[0]
        file_reader = PixelsReader(store, "b", key, cache=pool)
        for _ in range(2):  # a miss, then a promoting hit
            file_reader.read_group(0)
        for vector in file_reader.read_group(0).values():
            assert not vector.data.flags.writeable
        assert reader.scan().data.to_rows() == table.to_rows()

    def test_overwrite_invalidates_a_promoted_entry(self, store):
        pool, lookup = pooled_chunk(
            store, "k", ColumnVector.from_values(DataType.BIGINT, VALUES)
        )
        lookup()
        assert not isinstance(pooled_values(pool)[0], bytes)
        store.put("b", "k", BLOB)
        assert lookup() is None
        assert pool.cached_chunks == 0 and pool.cached_chunk_bytes == 0
        assert store.metrics.chunk_cache_evictions == 0
        assert store.metrics.chunk_cache_misses == 1

    def test_decoded_value_over_budget_is_dropped_uncounted(self, store):
        # 100 ten-character strings: 1 412 stored bytes, ~6.7 kB decoded.
        values = [f"{i:010d}" for i in range(100)]
        pool, lookup = pooled_chunk(
            store, "big", ColumnVector.from_values(DataType.VARCHAR, values),
            budget=2000,
        )
        store.put("b", "small", BLOB)
        pool.put_chunk("b", "small", 0, BLOB)
        assert pool.cached_chunk_bytes == 1412 + SIZE
        assert lookup().to_values() == values
        assert decoded_size(ColumnVector.from_values(DataType.VARCHAR, values)) > 2000
        assert pool.cached_chunks == 1 and pool.cached_chunk_bytes == SIZE
        assert store.metrics.chunk_cache_evictions == 0
        assert store.metrics.chunk_cache_hits == 1
        assert lookup() is None  # gone, as an oversized payload never came

    def test_promotion_evicts_lru_entries_to_fit(self, store):
        values = [f"{i:04d}" for i in range(8)]
        varchar = ColumnVector.from_values(DataType.VARCHAR, values)
        stored = len(encode_chunk(varchar, Encoding.PLAIN))
        decoded = decoded_size(varchar)
        budget = decoded + SIZE // 2
        pool, lookup = pooled_chunk(store, "s", varchar, budget=budget)
        for key in ("x", "y"):
            store.put("b", key, BLOB)
            pool.put_chunk("b", key, 0, BLOB)
        assert pool.cached_chunk_bytes == stored + 2 * SIZE <= budget
        assert lookup().to_values() == values  # "s" moves up, then grows
        assert store.metrics.chunk_cache_evictions == 2  # "x" and "y", oldest first
        assert pool.cached_chunks == 1
        assert pool.cached_chunk_bytes == decoded

    def test_materialize_leaves_the_pooled_entry_alone(self, store):
        values = ["x", "y", "x", None] * 4
        pool, lookup = pooled_chunk(
            store, "k", ColumnVector.from_values(DataType.VARCHAR, values),
            Encoding.DICT,
        )
        lookup()
        charge = pool.cached_chunk_bytes
        handed = lookup()
        (entry,) = pooled_values(pool)
        assert handed is not entry and handed.codes is entry.codes
        assert handed.materialize().to_values() == values
        assert entry._data is None
        assert pool.cached_chunk_bytes == charge
        assert lookup()._data is None

    def test_corrupt_chunk_raises_and_stays_bytes(self, store):
        blob = BLOB[:-1]  # one byte short of its twelve values
        store.put("b", "k", blob)
        pool = BufferPool(store)
        pool.put_chunk("b", "k", 0, blob)
        for _ in range(2):
            with pytest.raises(CorruptFileError):
                pool.chunk("b", "k", 0, len(blob), DECODE)
        assert pooled_values(pool) == [blob]
        assert pool.cached_chunk_bytes == len(blob)

    def test_concurrent_hits_promote_once(self, store):
        store.put("b", "k", BLOB)
        pool = BufferPool(store)
        pool.put_chunk("b", "k", 0, BLOB)
        decodes = []

        def decode(blob):
            decodes.append(blob)
            return DECODE(blob)

        barrier = threading.Barrier(4)
        seen = []

        def hit():
            barrier.wait()
            seen.append(pool.chunk("b", "k", 0, SIZE, decode))

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(decodes) == 1
        assert len(seen) == 4 and all(vector is seen[0] for vector in seen)
        assert seen[0].to_values() == VALUES
        assert store.metrics.chunk_cache_hits == 4
        assert pool.cached_chunk_bytes == decoded_size(seen[0])


class TestConfigPlumbing:
    def test_from_config_disabled_returns_none(self):
        store = ObjectStore()
        assert BufferPool.from_config(store, None) is None
        assert (
            BufferPool.from_config(store, CacheConfig(enabled=False)) is None
        )
        pool = BufferPool.from_config(store, CacheConfig())
        assert isinstance(pool, BufferPool)

    def test_config_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CacheConfig(footer_entries=-1)
        with pytest.raises(ValueError):
            CacheConfig(chunk_budget_bytes=-1)
        with pytest.raises(ValueError):
            CacheConfig(max_coalesce_gap_bytes=-1)

    def test_clear_resets_occupancy(self, chunked_table):
        store, _, _ = chunked_table
        pool = BufferPool(store)
        TableReader(store, "b", "t", cache=pool).scan()
        assert pool.cached_chunks > 0 and pool.cached_footers > 0
        pool.clear()
        assert pool.cached_chunks == 0
        assert pool.cached_footers == 0
        assert pool.cached_chunk_bytes == 0

    def test_clear_takes_the_pool_lock(self, chunked_table):
        store, _, _ = chunked_table
        pool = BufferPool(store)
        TableReader(store, "b", "t", cache=pool).scan()
        with pool._lock:
            clearing = threading.Thread(target=pool.clear)
            clearing.start()
            clearing.join(timeout=0.2)
            assert clearing.is_alive()  # waits for the lock
            assert pool.cached_chunks > 0
        clearing.join()
        assert pool.cached_chunks == 0 and pool.cached_chunk_bytes == 0
