"""What watching a fleet keeps alive.

Most submissions of a fleet at its service levels' prices are held: a
held query costs the observability bundle a few entries of the
lifecycle log, which hold only atoms, so the cycle collector tracks
nothing per held submission.  This replays one small fleet — a burst of
best-effort sessions behind a few immediate ones, so that nearly all of
it is still held at the horizon — observed and unobserved, and bounds
how many more GC-tracked objects the observed stack keeps.

Before the log, each submission kept its spans, span lists, activity
entry and prior: this fleet's observed stack kept 7 800–8 200 more
tracked objects over its 1 000 submissions (about 8 each).  The bound is
a third of that.

Reading the activity registry (a snapshot, the gauges' collector that
every scrape runs, a guard tick) folds the log into the shared
:class:`~repro.obs.activity.ActivityEntry` per query, which the
registry keeps so the next read folds only new entries: about one more
tracked object per submission (2.7–2.9 in all, measured on CPython
3.11).  That case is bounded at half the eager count.
"""

import gc

import pytest

from repro.core import QueryStatus, ServiceLevel
from repro.core.query_server import QueryServer
from repro.core.scheduler import AdmissionPolicy, SessionFleet, SessionSpec
from repro.obs import Instrumentation
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.workloads import TpchGenerator, load_dataset

SUBMISSIONS = 1000
#: Extra tracked objects per submission when every sink wrote eagerly.
EAGER_EXTRA_PER_SUBMISSION = 8.0
TEXTS = [
    "SELECT l_returnflag, count(*) FROM lineitem "
    f"WHERE l_quantity > {i} GROUP BY l_returnflag"
    for i in range(5)
] + [f"SELECT count(*) FROM nation WHERE n_regionkey = {i}" for i in range(5)]


@pytest.fixture(scope="module")
def dataset():
    store, catalog = ObjectStore(), Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.01).tables())
    return store, catalog


def replay(dataset, observe: bool) -> QueryServer:
    store, catalog = dataset
    sim = Simulator(seed=7)
    config = TurboConfig.experiment(data_inflation=50_000.0)
    obs = (
        Instrumentation.create(clock=lambda: sim.now)
        if observe
        else Instrumentation.disabled()
    )
    coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
    server = QueryServer(
        sim,
        coordinator,
        config,
        admission=AdmissionPolicy(tenant_quota=1000, downgrade_queue_depth=64),
    )
    fleet = SessionFleet(sim, server, num_shards=4)
    for index in range(SUBMISSIONS):
        level = (
            ServiceLevel.IMMEDIATE if index % 20 == 0 else ServiceLevel.BEST_EFFORT
        )
        fleet.add(
            SessionSpec(
                f"s-{index}", f"t-{index % 4}", level, (index * 0.02,),
                TEXTS[index % len(TEXTS)],
            )
        )
    fleet.start()
    sim.run_until(30.0)
    return server


def tracked_while_held(dataset, observe: bool, scrape: bool = False) -> int:
    server = replay(dataset, observe)
    held = sum(q.status is QueryStatus.PENDING for q in server.queries)
    assert held > 0.9 * SUBMISSIONS
    if scrape:
        server.obs.metrics.collect()
    gc.collect()
    return len(gc.get_objects())


def test_observing_held_submissions_keeps_almost_nothing(dataset):
    unobserved = tracked_while_held(dataset, observe=False)
    observed = tracked_while_held(dataset, observe=True)
    per_submission = (observed - unobserved) / SUBMISSIONS
    assert per_submission <= EAGER_EXTRA_PER_SUBMISSION / 3, per_submission


def test_a_scraped_registry_keeps_one_entry_per_submission(dataset):
    unobserved = tracked_while_held(dataset, observe=False)
    observed = tracked_while_held(dataset, observe=True, scrape=True)
    per_submission = (observed - unobserved) / SUBMISSIONS
    assert per_submission <= EAGER_EXTRA_PER_SUBMISSION / 2, per_submission
