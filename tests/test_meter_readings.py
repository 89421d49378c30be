"""One meter reading per execution window, and the bill is that reading.

The coordinator takes a query's reading as each execution window opens
(and a plain EXPLAIN's zero reading as it renders); the activity
registry's projection and the server's bill both read it.  These tests
count the readings a replay takes and pin the zero bill of a plain
EXPLAIN submitted through the server.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

from repro import PixelsDB
from repro.core import QueryStatus
from repro.obs.profiler import AXES
from repro.turbo.coordinator import Coordinator
from repro.turbo.cost import CostModel


def replay_workloads():
    """The benchmark's workload module, imported without editing it."""
    layers = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "layers"
    sys.path.insert(0, str(layers))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(layers))


@pytest.fixture
def tally(monkeypatch):
    """Counts of meter readings (every caller goes through
    ``CostModel.meter``) and of execution windows opened (a plain
    EXPLAIN's reading opens none)."""
    counts = {"readings": 0, "windows": 0}
    meter, open_window = CostModel.meter, Coordinator._open_window

    def reading(*args, **kwargs):
        counts["readings"] += 1
        return meter(*args, **kwargs)

    def window(self, execution, stats, duration_s=None, *rest):
        counts["windows"] += duration_s is not None
        return open_window(self, execution, stats, duration_s, *rest)

    monkeypatch.setattr(CostModel, "meter", reading)
    monkeypatch.setattr(Coordinator, "_open_window", window)
    return counts


def replay(name: str):
    """A seed-1 round of the benchmark replay ``name``, drained."""
    workload = getattr(replay_workloads(), name)(1, {})
    workload.load()
    sim, server = workload.build()
    for until in workload.boundaries:
        sim.run_until(until)
    while (until := workload.drain_until(sim, server)) is not None:
        sim.run_until(until)
    return server


class TestReadingsPerWindow:
    def test_observed_fleet_sched_takes_one_reading_per_window(self, tally):
        """Observed, the projection is the bill: 2 028 windows, 2 028
        readings (not a second one per billed completion)."""
        server = replay("FleetSched")
        billed = [q for q in server.queries if q.bill is not None]
        assert len(billed) == 2025
        assert tally == {"readings": 2028, "windows": 2028}

    def test_unobserved_hybrid_replay_takes_the_same_readings(self, tally):
        server = replay("HybridReplay")
        assert sum(q.bill is not None for q in server.queries) == 310
        assert tally == {"readings": 310, "windows": 310}


class TestPlainExplainBill:
    @pytest.mark.parametrize("observe", [False, True])
    def test_plain_explain_bills_a_zero_reading(self, observe):
        """A plain EXPLAIN occupies no venue and opens no window, yet it
        completes with a bill — a zero one — that the ledger records and
        the reconciler accepts."""
        db = PixelsDB(observe=observe, seed=5)
        db.load_tpch("tpch", scale=0.01)
        record = db.submit("tpch", "EXPLAIN SELECT COUNT(*) FROM nation")
        db.run_to_completion()
        assert record.status is QueryStatus.FINISHED
        assert record.bill is not None
        assert record.bill.billed_nanodollars == 0
        assert record.bill.axes == dict.fromkeys(AXES, 0)
        assert record.execution.provider_cost == 0.0
        if not observe:
            return  # no ledger is kept, so there is nothing to reconcile
        # One user-account charge_query of zero: a zero per axis.
        events = db.obs.ledger.events_for(record.query_id)
        assert [(e.kind, e.account, e.axis, e.nanodollars) for e in events] == [
            ("charge", "user", axis, 0) for axis in AXES
        ]
        assert {e.billed_nanodollars for e in events} == {0}
        report = db.reconcile()
        assert report.ok, report.render()
