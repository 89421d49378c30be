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

Writing costs one lifecycle-log entry per transition, and nothing reads
the log while a replay nobody asks about runs: a held submission is two
entries (its submission and its queueing; seven when each sink wrote its
own), a rejected one two, and a whole round at most four per
submission (10.2 on a seed-1 ``fleet_sched`` round when each sink wrote
its own).  A fleet-shaped replay — best-effort bulk, a relaxed spike,
immediate probes, admission downgrades and a queue that overflows — pins
the same counts.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.core import QueryStatus, ServiceLevel
from repro.core.query_server import QueryServer
from repro.core.scheduler import AdmissionPolicy, SessionFleet, SessionSpec
from repro.obs import Instrumentation
from repro.obs.lifecycle import LifecycleLog
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


def replay(dataset, observe: bool, sessions=None, **server) -> QueryServer:
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
        **server,
    )
    fleet = SessionFleet(sim, server, num_shards=4)
    for spec in sessions if sessions is not None else held_fleet():
        fleet.add(spec)
    fleet.start()
    sim.run_until(30.0)
    return server


def held_fleet() -> list[SessionSpec]:
    """A burst of best-effort sessions behind a few immediate ones."""
    return [
        SessionSpec(
            f"s-{index}", f"t-{index % 4}",
            ServiceLevel.IMMEDIATE if index % 20 == 0 else ServiceLevel.BEST_EFFORT,
            (index * 0.02,), TEXTS[index % len(TEXTS)],
        )
        for index in range(SUBMISSIONS)
    ]


def fleet_shaped(seed: int = 1) -> list[SessionSpec]:
    """``fleet_sched``'s shape in small: best-effort bulk over the whole
    horizon, a relaxed spike in its middle, immediate probes."""
    rng = np.random.default_rng(seed)
    bulk = np.sort(rng.uniform(0.0, 30.0, 1200))
    spike = np.sort(rng.normal(15.0, 0.5, 600).clip(0.0, 30.0))
    sessions = [
        (f"bulk-{i}", ServiceLevel.BEST_EFFORT, at) for i, at in enumerate(bulk)
    ] + [(f"spike-{i}", ServiceLevel.RELAXED, at) for i, at in enumerate(spike)]
    sessions += [
        (f"probe-{i}", ServiceLevel.IMMEDIATE, float(at))
        for i, at in enumerate(np.arange(1.0, 30.0, 3.0))
    ]
    return [
        SessionSpec(
            name, f"t-{index % 8}", level, (float(at),),
            TEXTS[int(rng.integers(len(TEXTS)))],
        )
        for index, (name, level, at) in enumerate(sessions)
    ]


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


class CountingLog(LifecycleLog):
    """The bundle's log, counting every read of it."""

    reads = 0

    def of(self, trace_id):
        CountingLog.reads += 1
        return super().of(trace_id)

    def since(self, position):
        CountingLog.reads += 1
        return super().since(position)


@pytest.mark.parametrize(
    "sessions, server",
    [(held_fleet, {}), (fleet_shaped, {"max_queue_length": 400})],
    ids=["held_fleet", "fleet_shaped"],
)
def test_one_entry_per_transition_and_no_reads(dataset, monkeypatch, sessions, server):
    monkeypatch.setattr("repro.obs.LifecycleLog", CountingLog)
    CountingLog.reads = 0
    observed = replay(dataset, observe=True, sessions=sessions(), **server)
    log = observed.obs.log
    assert type(log) is CountingLog
    # Nobody read the log while the replay ran.
    assert CountingLog.reads == 0
    counts = Counter(entry[0] for entry in log)
    kinds = {}
    for entry in log:
        kinds.setdefault(entry[0], []).append(entry[2])
    held = [
        q.query_id for q in observed.queries
        if q.status is QueryStatus.PENDING and q.execution is None
    ]
    rejected = [query_id for query_id, seen in kinds.items() if "reject" in seen]
    assert held
    # Submitted and queued (an admission downgrade is one more).
    assert {
        counts[query_id] - kinds[query_id].count("downgrade") for query_id in held
    } == {2}
    assert {tuple(kinds[query_id]) for query_id in held} <= {
        ("submit", "queue"), ("submit", "downgrade", "queue"),
    }
    # Submitted and rejected (likewise).
    assert {
        counts[query_id] - kinds[query_id].count("downgrade") for query_id in rejected
    } <= {2}
    # Every query in the log is a submission.
    assert sum(counts.values()) <= 4 * len(counts)
    if sessions is fleet_shaped:
        assert rejected
        assert any("downgrade" in seen for seen in kinds.values())
