"""Ablation A3 — batch query optimization via shared scans (paper §5).

The paper's conclusion: deferring non-urgent queries "provides
opportunities for batch query optimization".  This reproduction implements
the canonical such optimization — scan sharing — for queued best-of-effort
queries, and the ablation measures what it buys: a reporting backlog of
queries over the same fact table, dispatched one-by-one vs as shared-scan
batches, comparing object-store bytes read, batch makespan, and provider
cost.  Results must be identical either way.
"""

import dataclasses

import pytest

from common import format_row, report
from repro.core import QueryServer, QueryStatus, ServiceLevel
from repro.storage.cache import CacheConfig
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.workloads import TpchGenerator, load_dataset

# A nightly reporting backlog: 9 queries over the lineitem fact table.
BACKLOG = [
    "SELECT l_returnflag, sum(l_extendedprice) FROM lineitem GROUP BY l_returnflag",
    "SELECT l_linestatus, sum(l_extendedprice) FROM lineitem GROUP BY l_linestatus",
    "SELECT l_shipmode, sum(l_extendedprice) FROM lineitem GROUP BY l_shipmode",
    "SELECT sum(l_extendedprice * (1 - l_discount)) FROM lineitem",
    "SELECT avg(l_quantity) FROM lineitem WHERE l_discount > 0.05",
    "SELECT l_returnflag, avg(l_extendedprice) FROM lineitem GROUP BY l_returnflag",
    "SELECT count(*) FROM lineitem WHERE l_quantity > 25",
    "SELECT l_shipmode, max(l_extendedprice) FROM lineitem GROUP BY l_shipmode",
    "SELECT min(l_extendedprice), max(l_extendedprice) FROM lineitem",
]
BLOCKER = "SELECT o_orderstatus, count(*) FROM orders GROUP BY o_orderstatus"


def run_variant(batch_mode: bool):
    sim = Simulator(seed=6)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.2).tables())
    # Ablate with the buffer pool off: a warm pool already deduplicates
    # repeated chunk reads across the one-by-one backlog, which would mask
    # the physical bytes the *sharing* mechanism itself saves.
    config = dataclasses.replace(
        TurboConfig.experiment(300.0), cache=CacheConfig(enabled=False)
    )
    coordinator = Coordinator(sim, config, catalog, store, "tpch")
    server = QueryServer(sim, coordinator, config, batch_best_effort=batch_mode)
    loaded = store.metrics.snapshot()
    # Hold the cluster busy briefly so the backlog queues, then drains.
    for _ in range(3):
        server.submit(BLOCKER, ServiceLevel.RELAXED)
    backlog = [server.submit(sql, ServiceLevel.BEST_EFFORT) for sql in BACKLOG]
    sim.run_until(7200)
    first_start = min(q.execution.started_at for q in backlog)
    last_finish = max(q.execution.finished_at for q in backlog)
    return {
        "records": backlog,
        "bytes_read": store.metrics.delta(loaded).bytes_read,
        "makespan": last_finish - first_start,
        "provider": coordinator.total_provider_cost(),
        "saved": sum(coordinator.trace.values("batch.bytes_saved")),
    }


def run_experiment():
    return {
        "one-by-one": run_variant(False),
        "shared-scan batch": run_variant(True),
    }


def test_a3_batch_optimization(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = [
        format_row("variant", "bytes read", "makespan", "provider $"),
    ]
    for name, cells in results.items():
        lines.append(
            format_row(
                name,
                f"{cells['bytes_read'] / 1e6:.2f} MB",
                f"{cells['makespan']:.0f}s",
                f"{cells['provider']:.4f}",
            )
        )
    solo = results["one-by-one"]
    batch = results["shared-scan batch"]
    lines += [
        "",
        f"bytes saved by sharing (batch accounting): "
        f"{batch['saved'] / 1e6:.2f} MB",
        "results identical across variants: "
        f"{all(a.result_rows() == b.result_rows() for a, b in zip(solo['records'], batch['records']))}",
    ]
    report("A3  Ablation: shared-scan batch optimization, paper §5", lines)

    assert all(
        r.status is QueryStatus.FINISHED
        for cells in results.values()
        for r in cells["records"]
    )
    # Same answers and the same bill per query, fewer bytes, shorter batch
    # window, no extra cost.
    for a, b in zip(solo["records"], batch["records"]):
        assert a.result_rows() == b.result_rows()
        assert a.price_nanodollars == b.price_nanodollars
    assert batch["bytes_read"] < solo["bytes_read"]
    assert batch["makespan"] <= solo["makespan"]
    assert batch["provider"] <= solo["provider"] * 1.05
    assert batch["saved"] > 0
