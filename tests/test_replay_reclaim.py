"""A finished replay is freed by reference counting, not by the collector.

Every replay builds a fresh Simulator / Coordinator / QueryServer stack.
If that stack ends as a reference cycle, its memory — the VM tier's
buffer pool and every query's result table included — waits for a full
generation-2 collection, and how often one runs depends on how many
containers unrelated code happens to allocate.  Two kinds of cycle used
to exist in a quiesced, unobserved replay: the self-rescheduling ticks
(simulator -> heap -> event -> bound method -> owner -> simulator) and
each query's completion continuation (execution -> closure -> record ->
execution).  An observed replay added four more: the query recorder
holding the server's bound methods, the execution recorder holding its
coordinator, the venue series holding the coordinators that hold the
registry, and the scrape loop's tick.  These tests pin every fix with
the collector switched off.
"""

import gc
import weakref

import pytest

from repro.baselines import run_workload
from repro.baselines.runner import Submission
from repro.core import ServiceLevel
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import TurboConfig
from repro.turbo.coordinator import ExecutionVenue
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


@pytest.fixture(scope="module")
def dataset():
    store, catalog = ObjectStore(), Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
    return store, catalog


def submissions() -> list[Submission]:
    """Twenty-one arrivals over every TPC-H template and all three levels;
    the immediate ones land together so some overflow to the CF venue."""
    statements = list(TPCH_QUERIES.values())
    levels = (ServiceLevel.RELAXED, ServiceLevel.BEST_EFFORT, ServiceLevel.IMMEDIATE)
    return [
        Submission(
            1.0 + 0.1 * index if index % 3 == 2 else 5.0 * index,
            statements[index % len(statements)],
            levels[index % 3],
        )
        for index in range(21)
    ]


def replay_and_drop(dataset, observe: bool = False) -> list[weakref.ref]:
    """Run a replay to quiescence and let go of it; what comes back are
    weak references to its simulator, coordinator, server and one result
    table — the frame's own strong references die with the return."""
    store, catalog = dataset
    result = run_workload(
        submissions(), store, catalog, "tpch", TurboConfig.experiment(),
        observe=observe,
    )
    assert len(result.queries) == 21
    assert all(query.status.is_terminal for query in result.queries)
    venues = {query.execution.venue for query in result.queries}
    assert venues == {ExecutionVenue.VM, ExecutionVenue.CF}
    assert result.sim.pending_events > 0  # the ticks are still scheduled
    return [
        weakref.ref(result.sim),
        weakref.ref(result.coordinator),
        weakref.ref(result.server),
        weakref.ref(result.queries[0].execution.result.data),
    ]


def test_quiesced_replay_is_freed_without_the_cycle_collector(dataset):
    assert_freed_without_the_cycle_collector(dataset, observe=False)


def test_quiesced_observed_replay_is_freed_without_the_cycle_collector(dataset):
    assert_freed_without_the_cycle_collector(dataset, observe=True)


def assert_freed_without_the_cycle_collector(dataset, observe: bool) -> None:
    gc.collect()  # earlier tests' garbage is not this test's business
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = replay_and_drop(dataset, observe)
        assert [ref() for ref in refs] == [None] * len(refs)
        # Nothing of the replay was left for the collector either.
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            leaked = [
                type(found).__qualname__
                for found in gc.garbage
                if type(found).__module__.startswith("repro.")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
    finally:
        if was_enabled:
            gc.enable()


class TestCompletionCallbackIsOneShot:
    def test_success_path(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        calls = []
        execution = coordinator.submit(
            HEAVY, cf_enabled=False, on_complete=calls.append
        )
        assert execution.on_complete is not None and calls == []
        sim.run_until(120)
        assert execution.succeeded
        assert calls == [execution]
        assert execution.on_complete is None

    def test_fail_path(self, turbo_env):
        sim, _, _, _, coordinator, _ = turbo_env
        calls = []
        execution = coordinator.submit(
            HEAVY, cf_enabled=False, on_complete=calls.append
        )
        assert coordinator.cancel(execution.query_id)
        assert execution.error is not None
        assert calls == [execution]
        assert execution.on_complete is None
        sim.run_until(120)  # the cancelled finish event never fires it again
        assert calls == [execution]

    def test_callback_sees_the_slot_already_cleared(self, turbo_env):
        """The continuation is dropped *before* it runs, so a callback that
        fails the execution again (as a cancel racing completion could)
        cannot re-enter itself."""
        sim, _, _, _, coordinator, _ = turbo_env
        seen = []
        execution = coordinator.submit(
            HEAVY,
            cf_enabled=False,
            on_complete=lambda finished: seen.append(finished.on_complete),
        )
        sim.run_until(120)
        assert seen == [None]
