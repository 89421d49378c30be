"""One observed stack, whoever builds it.

``PixelsDB(observe=True)`` and ``run_workload(observe=True)`` both get
their observed stack from ``Instrumentation.create`` over their
simulator.  Replaying one arrival schedule through each — every side
over its own freshly loaded copy of the same dataset, because the
object store's counters are cumulative and feed the time series — must
then export the same bytes.
"""

import pytest

from repro import PixelsDB, ServiceLevel
from repro.baselines.runner import Submission, run_workload
from repro.obs.alerts import ThresholdRule, default_rules
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

SCALE = 0.01
SEED = 3
KINDS = ("timeseries", "alerts", "slo", "journal", "ledger", "traces")


def rules():
    """The default rules, and one that fires once the VM cluster has a
    worker, so the alert log has something to compare."""
    return [*default_rules(), ThresholdRule("Busy", "pixels_vm_workers", 0.5)]


def schedule() -> list[Submission]:
    levels = list(ServiceLevel)
    return [
        Submission(
            at, sql, levels[index % len(levels)], tenant=f"t{index % 2}"
        )
        for index, (at, sql) in enumerate(
            zip(
                [0.0, 5.0, 5.0, 40.0, 95.0, 130.0, 200.0, 210.0],
                list(TPCH_QUERIES.values()) * 2,
            )
        )
    ]


def through_run_workload(submissions: list[Submission]) -> dict[str, str]:
    store, catalog = ObjectStore(), Catalog()
    load_dataset(
        store, catalog, "tpch", TpchGenerator(scale=SCALE, seed=42).tables()
    )
    result = run_workload(
        submissions,
        store,
        catalog,
        "tpch",
        seed=SEED,
        observe=True,
        alert_rules=rules(),
    )
    return {kind: result.obs.export(kind) for kind in KINDS}


def through_pixelsdb(submissions: list[Submission]) -> dict[str, str]:
    db = PixelsDB(seed=SEED, observe=True, alert_rules=rules())
    db.load_tpch("tpch", scale=SCALE)
    server = db.query_server("tpch")  # built at t=0, as run_workload's is
    for submission in submissions:
        db.sim.schedule_at(
            submission.time,
            lambda s=submission: db.submit(
                "tpch", s.sql, s.level, s.result_limit, tenant=s.tenant
            ),
        )
    last_arrival = max(submission.time for submission in submissions)
    while True:  # run_workload's 60 s slices to quiescence
        db.run(60.0)
        if db.now >= last_arrival and all(
            query.status.is_terminal for query in server.queries
        ):
            break
    return {kind: db.export(kind) for kind in KINDS}


@pytest.fixture(scope="module")
def exports():
    submissions = schedule()
    return through_pixelsdb(submissions), through_run_workload(submissions)


@pytest.mark.parametrize("kind", KINDS)
def test_both_builders_export_the_same_bytes(exports, kind):
    db, workload = exports
    assert db[kind], f"the {kind} export is empty: the replay compares nothing"
    assert db[kind] == workload[kind]


def test_the_alert_log_does_not_depend_on_what_was_read_before_it():
    """The alert log reads through the same final scrape as the time
    series, and that scrape evaluates the rules: reading the alerts
    first gives the bytes a read after the time series gives."""

    def session() -> PixelsDB:
        db = PixelsDB(
            observe=True,
            alert_rules=[ThresholdRule("Busy", "pixels_vm_workers", 0.5)],
        )
        db.load_tpch("tpch", scale=SCALE)
        db.submit("tpch", "SELECT count(*) FROM nation", ServiceLevel.IMMEDIATE)
        db.run(10.0)
        return db

    alerts_first = session().export("alerts")
    db = session()
    db.export("timeseries")
    alerts_after = db.export("alerts")
    assert '"Busy"' in alerts_after
    assert alerts_first == alerts_after
