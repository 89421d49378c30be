"""One scan enumeration: the lazy and read-ahead scans read the same morsels.

``ObjectStoreSource.morsels`` cuts a scan into row-group morsels once;
``scan_batches`` reads them lazily and ``scan_batches_parallel`` reads
them on worker threads.  Over a table holding a mixed file, a fully
pruned file, a ``CREATE TABLE`` file and a file with no row groups, both
paths must yield equal granules (rows, every counter, ``rows_scanned``,
``latency_s``) and leave equal store totals, with the pool off, cold and
warm.  The totals are also checked against the granules and against
``TableReader.scan``, so an accounting slip both paths share shows too.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.optimizer import Optimizer
from repro.engine.plan import Scan, walk_plan
from repro.engine.planner import Planner
from repro.engine.source import ObjectStoreSource
from repro.storage.cache import BufferPool
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.file_format import PixelsWriter
from repro.storage.object_store import ObjectStore, ScanCounters
from repro.storage.table import TableData, TableReader
from repro.storage.types import DataType

SCHEMA = [("k", DataType.BIGINT), ("v", DataType.DOUBLE), ("s", DataType.VARCHAR)]
ROWS_PER_GROUP = 10
SQL = "SELECT k, s FROM t WHERE k >= 25 AND k < 500 AND v > 0.4"
COUNTERS = [field.name for field in dataclasses.fields(ScanCounters)]


def _rows(keys):
    rng = np.random.default_rng(7)
    return [
        (int(k), float(rng.random()), ["red", "green", "blue"][int(k) % 3])
        for k in keys
    ]


def _write(store, key, rows):
    """One file of ``rows`` in ``ROWS_PER_GROUP``-row groups.  No rows
    write one empty group, as ``TableWriter`` does for ``CREATE TABLE``;
    ``rows`` None writes a file with no row groups at all."""
    writer = PixelsWriter(store, "b", key, SCHEMA)
    if rows is not None:
        table = TableData.from_rows(SCHEMA, rows)
        for start in range(0, max(table.num_rows, 1), ROWS_PER_GROUP):
            writer.write_row_group(table.slice(start, start + ROWS_PER_GROUP).columns)
    writer.close()


def _environment():
    store = ObjectStore()
    store.create_bucket("b")
    _write(store, "t/part-0.pxl", _rows(range(0, 100)))  # groups 0-1 pruned
    _write(store, "t/part-1.pxl", _rows(range(1000, 1040)))  # fully pruned
    _write(store, "t/part-2.pxl", [])  # what CREATE TABLE writes: one empty group
    _write(store, "t/part-3.pxl", None)  # no row groups
    _write(store, "t/part-4.pxl", _rows(range(400, 537)))  # last groups pruned
    catalog = Catalog()
    catalog.create_schema("s")
    catalog.create_table(
        "s",
        "t",
        [ColumnMeta(name, dtype, name) for name, dtype in SCHEMA],
        bucket="b",
        prefix="t",
    )
    plan = Optimizer().optimize(Planner(catalog, "s").plan_sql(SQL))
    (scan,) = [node for node in walk_plan(plan) if isinstance(node, Scan)]
    assert scan.ranges and scan.residual is not None
    return store, scan


def _fingerprint(granule):
    return (
        granule.data.to_rows(),
        [getattr(granule, name) for name in COUNTERS],
        granule.rows_scanned,
        granule.latency_s,
    )


def _scan(workers, pooled):
    """Every granule of the scan (a cold pass, then a warm one through the
    same pool when ``pooled``) and the store's totals."""
    store, scan = _environment()
    source = ObjectStoreSource(store, cache=BufferPool(store) if pooled else None)
    passes = []
    for _ in range(2 if pooled else 1):
        if workers == 1:
            granules = source.scan_batches(scan)
        else:
            granules = source.scan_batches_parallel(scan, workers)
        passes.append([_fingerprint(granule) for granule in granules])
    return passes, store.metrics, scan


@pytest.mark.parametrize("pooled", [False, True], ids=["no-pool", "pool"])
def test_lazy_and_read_ahead_scans_yield_equal_granules(pooled):
    lazy, lazy_totals, scan = _scan(1, pooled)
    for workers in (2, 4):
        ahead, ahead_totals, _ = _scan(workers, pooled)
        assert ahead == lazy, f"workers={workers}"
        assert ahead_totals == lazy_totals, f"workers={workers}"

    # Part 0 keeps 8 of its 10 groups and part 4 11 of its 14 (the last of
    # which the residual empties); parts 1 to 3 each yield one empty
    # granule to carry their footer reads.
    granules = lazy[0]
    assert [rows_scanned for _, _, rows_scanned, _ in granules] == (
        [ROWS_PER_GROUP] * 8 + [0] * 3 + [ROWS_PER_GROUP] * 11
    )
    assert granules[-1][0] == []
    totals = dict(zip(COUNTERS, np.sum([counters for _, counters, *_ in granules], 0)))
    assert totals["row_groups_skipped"] == 2 + 4 + 1 + 3
    assert totals["footer_gets"] == 2 * 5

    # Every footer read lands on exactly one granule, and the granules add
    # up to the store's totals and to a whole-table read of the same scan.
    reference_store, _ = _environment()
    reference = TableReader(reference_store, "b", "t").scan(
        [base for _, base in scan.columns], scan.ranges
    )
    assert totals["bytes_scanned"] == reference.bytes_scanned
    assert totals["row_groups_skipped"] == reference.row_groups_skipped
    if not pooled:
        assert totals == {name: getattr(reference, name) for name in COUNTERS}
        assert dataclasses.astuple(
            ScanCounters.of(lazy_totals, reference.row_groups_skipped)
        ) == tuple(totals.values())


def test_pulling_one_granule_opens_one_file():
    store, scan = _environment()
    granules = ObjectStoreSource(store).scan_batches(scan)
    first = next(granules)
    assert store.metrics.footer_get_requests == 2
    assert (first.footer_gets, first.row_groups_skipped) == (2, 2)
    granules.close()
    assert store.metrics.footer_get_requests == 2
