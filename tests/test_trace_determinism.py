"""End-to-end tracing: deterministic exports, span closure on every
termination path, and the zero-cost disabled default."""

import hashlib
import json

import numpy as np
import pytest

from repro import PixelsDB, ServiceLevel
from repro.baselines.runner import Submission, run_workload
from repro.core import QueryServer, QueryStatus
from repro.core.scheduler import AdmissionPolicy
from repro.obs import Instrumentation
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.coordinator import ExecutionVenue
from repro.turbo.faults import FaultConfig
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

SQL = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


def run_session(observe=True):
    db = PixelsDB(observe=observe, seed=5)
    db.load_tpch("tpch", scale=0.01)
    db.submit("tpch", "SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
    db.submit(
        "tpch",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        ServiceLevel.RELAXED,
    )
    db.submit("tpch", "SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT)
    db.run_to_completion()
    return db


def make_observed_stack(faults=None, seed=3):
    sim = Simulator(seed=seed)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    config = TurboConfig.fast()
    obs = Instrumentation.create(clock=lambda: sim.now)
    coordinator = Coordinator(
        sim, config, catalog, store, "tpch", faults=faults, obs=obs
    )
    server = QueryServer(sim, coordinator, config)
    return sim, coordinator, server, obs


@pytest.fixture(scope="module")
def dataset():
    store, catalog = ObjectStore(), Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    return store, catalog


def replay_composition(dataset, observe, batch_best_effort, seed=1):
    """One seeded schedule through every feature that touches the bill at
    once: VM crashes and CF failures with a retry budget, quota and
    pressure-downgrade admission, a statement that fails in planning, an
    EXPLAIN ANALYZE, and 25 cancels at seeded times of whichever query is
    live then."""
    store, catalog = dataset
    rng = np.random.default_rng(seed)
    statements = [*TPCH_QUERIES.values(), "SELECT no_such_column FROM nation"]
    levels = list(ServiceLevel)
    submissions = [
        Submission(
            float(at),
            # Every fortieth arrival is analyzed: it runs, bills and prints.
            ("" if index % 40 else "EXPLAIN ANALYZE ")
            + statements[int(rng.integers(len(statements)))],
            levels[int(rng.integers(len(levels)))],
            tenant=f"tenant-{int(rng.integers(2))}",
        )
        for index, at in enumerate(np.sort(rng.uniform(0.0, 240.0, 120)))
    ]
    # Horizon 0: the stack is built and every arrival scheduled, nothing
    # has run — the cancels below interleave with the replay.
    result = run_workload(
        submissions,
        store,
        catalog,
        "tpch",
        TurboConfig.experiment(data_inflation=20_000.0),
        seed=seed,
        horizon_s=0.0,
        observe=observe,
        coordinator_kwargs={
            "faults": FaultConfig(
                vm_crash_rate=0.15, cf_failure_rate=0.15, max_retries=2
            )
        },
        server_kwargs={
            "batch_best_effort": batch_best_effort,
            "admission": AdmissionPolicy(
                tenant_quota=25, downgrade_queue_depth=8
            ),
        },
    )
    sim, server = result.sim, result.server
    for at in np.sort(rng.uniform(5.0, 400.0, 25)):
        sim.run_until(float(at))
        live = [q for q in server.queries if not q.status.is_terminal]
        if live:
            server.cancel(live[int(rng.integers(len(live)))].query_id)
    while not all(q.status.is_terminal for q in server.queries):
        sim.run_until(sim.now + 60.0)
    return result


def bills(result):
    """What a user could tell two runs apart by, per query."""
    return [
        (
            query.query_id,
            query.status,
            query.level,
            query.price_nanodollars,
            query.bill,
            query.execution.retries if query.execution is not None else None,
            hashlib.sha256(repr(query.result_rows()).encode()).hexdigest(),
        )
        for query in result.server.queries
    ]


def span_names(timeline):
    names = []

    def walk(nodes):
        for node in nodes:
            names.append(node["name"])
            walk(node["children"])

    walk(timeline["spans"])
    return names


class TestDeterminism:
    def test_same_seed_gives_byte_identical_traces(self):
        first = run_session().export("traces")
        second = run_session().export("traces")
        assert first == second
        assert json.loads(first)  # non-empty, valid JSON

    def test_query_lifecycle_spans_present(self):
        db = run_session()
        timeline = json.loads(db.obs.tracer.export_json("sq-1"))
        names = span_names(timeline)
        for expected in ("query", "submit", "dispatch", "plan", "execute", "scan", "bill"):
            assert expected in names, f"missing span {expected!r}"
        # Every span is closed with a terminal status.
        def statuses(nodes):
            for node in nodes:
                yield node["status"], node["end"]
                yield from statuses(node["children"])

        for status, end in statuses(timeline["spans"]):
            assert status != "open"
            assert end is not None


class TestClosureOnTerminationPaths:
    def test_cancellation_closes_spans_as_cancelled(self):
        sim, coordinator, server, obs = make_observed_stack()
        record = server.submit(SQL, ServiceLevel.IMMEDIATE)
        sim.run_until(0.01)  # dispatched, still executing
        assert server.cancel(record.query_id)
        sim.run_until(60)
        assert record.status is QueryStatus.FAILED
        spans = obs.tracer.spans(record.query_id)
        assert spans and obs.tracer.open_spans(record.query_id) == []
        assert any(span.status == "cancelled" for span in spans)

    def test_cancel_while_held_in_server_queue(self):
        sim, coordinator, server, obs = make_observed_stack()
        # best-effort is held whenever the cluster is not below the low
        # watermark; submit a blocker first.
        server.submit(SQL, ServiceLevel.IMMEDIATE)
        held = server.submit(SQL, ServiceLevel.BEST_EFFORT)
        assert held.status is QueryStatus.PENDING
        assert server.cancel(held.query_id)
        spans = obs.tracer.spans(held.query_id)
        queue_spans = [s for s in spans if s.name == "queue"]
        assert queue_spans and queue_spans[0].status == "cancelled"
        assert obs.tracer.open_spans(held.query_id) == []

    def test_cf_retries_leave_retry_spans(self):
        sim, coordinator, server, obs = make_observed_stack(
            FaultConfig(cf_failure_rate=0.5, max_retries=10)
        )
        for _ in range(4):  # saturate the VM slots
            server.submit(SQL, ServiceLevel.RELAXED)
        record = server.submit(SQL, ServiceLevel.IMMEDIATE)
        sim.run_until(1800)
        assert record.status is QueryStatus.FINISHED
        assert record.execution.retries > 0
        spans = obs.tracer.spans(record.query_id)
        invokes = [s for s in spans if s.name == "cf_invoke"]
        assert len(invokes) == record.execution.retries + 1
        assert [s.status for s in invokes] == ["retry"] * record.execution.retries + ["ok"]
        assert obs.tracer.open_spans(record.query_id) == []

    def test_vm_crash_retry_marks_execute_span(self):
        sim, coordinator, server, obs = make_observed_stack(
            FaultConfig(vm_crash_rate=0.5, max_retries=10)
        )
        records = [server.submit(SQL, ServiceLevel.RELAXED) for _ in range(8)]
        sim.run_until(1800)
        assert all(r.status is QueryStatus.FINISHED for r in records)
        retried = [r for r in records if r.execution.retries > 0]
        assert retried
        for record in retried:
            executes = [
                s for s in obs.tracer.spans(record.query_id) if s.name == "execute"
            ]
            assert sum(1 for s in executes if s.status == "retry") == (
                record.execution.retries
            )
            assert executes[-1].status == "ok"
            assert obs.tracer.open_spans(record.query_id) == []


class TestDisabledDefault:
    def test_observe_off_records_nothing(self):
        db = run_session(observe=False)
        assert db.export("metrics") == ""
        assert db.export("traces") == ""
        assert not db.obs.enabled

    def test_results_identical_with_and_without_observability(self):
        queries_on = run_session(observe=True).query_server("tpch").queries
        queries_off = run_session(observe=False).query_server("tpch").queries
        assert [q.result_rows() for q in queries_on] == [
            q.result_rows() for q in queries_off
        ]
        assert [q.price for q in queries_on] == [q.price for q in queries_off]

    @pytest.mark.parametrize("batch_best_effort", [False, True])
    def test_same_integer_bills_under_every_feature_at_once(
        self, dataset, batch_best_effort
    ):
        observed = replay_composition(dataset, True, batch_best_effort)
        dark = replay_composition(dataset, False, batch_best_effort)
        # The schedule reaches every path that can touch a bill.
        queries = observed.server.queries
        verdicts = observed.server.scheduler_snapshot()["admission"]
        assert verdicts["rejected"]["tenant_quota"] > 0
        assert verdicts["downgraded"]["queue_pressure"] > 0
        assert any(q.execution and q.execution.retries for q in queries)
        assert any("gave up" in (q.error or "") for q in queries)
        assert any("no_such_column" in (q.error or "") for q in queries)
        assert any(q.cancelled and q.execution is None for q in queries)
        assert any(q.cancelled and q.execution is not None for q in queries)
        assert any(q.price_nanodollars > 0 for q in queries)
        assert any(
            q.execution and q.execution.venue is ExecutionVenue.CF
            and q.execution.retries
            for q in queries
        )
        assert any(
            q.sql.startswith("EXPLAIN ANALYZE") and q.bill is not None
            for q in queries
        )
        if batch_best_effort:
            assert any(
                span.name == "execute" and span.attributes.get("batch")
                for q in queries
                if q.bill is not None
                for span in observed.obs.tracer.spans(q.query_id)
            )

        assert bills(observed) == bills(dark)
        # Projection and bill are one reading: every billed query's
        # activity entry was handed exactly the integer and axes it billed.
        billed = [q for q in queries if q.bill is not None]
        assert billed
        for query in billed:
            entry = observed.obs.activity.entry(query.query_id)
            assert entry.final_nanodollars == query.bill.billed_nanodollars
            assert entry.final_axes == query.bill.axes
        total = observed.server.total_billed_nanodollars()
        assert total == dark.server.total_billed_nanodollars()
        # The ledger (observed only) nets to the integer both runs billed.
        assert total == sum(
            event.nanodollars
            for event in observed.obs.ledger.events()
            if event.account == "user"
        )


class TestMetricsEndToEnd:
    def test_exposition_covers_the_paper_series(self):
        db = run_session()
        text = db.export("metrics")
        for series in (
            "pixels_queries_submitted_total",
            "pixels_queries_total",
            "pixels_billed_dollars_total",
            "pixels_server_queue_depth",
            "pixels_vm_workers",
            "pixels_vm_queue_depth",
            "pixels_cache_events_total",
            "pixels_logical_bytes_scanned_total",
            "pixels_store_requests_total",
            "pixels_query_pending_seconds_bucket",
        ):
            assert series in text, f"missing series {series!r}"
        assert 'pixels_queries_submitted_total{level="immediate"} 1' in text
        assert 'pixels_queries_total{status="ok",venue="vm"} 3' in text

    def test_watermark_crossings_counted(self):
        from repro.turbo.config import VmConfig
        from repro.turbo.vm_cluster import VmTask

        sim = Simulator()
        obs = Instrumentation.create(clock=lambda: sim.now)
        config = TurboConfig(
            vm=VmConfig(
                min_workers=1,
                max_workers=8,
                slots_per_worker=2,
                scale_out_lag_s=5.0,
                evaluation_interval_s=1.0,
                scale_in_window_s=20.0,
                scale_in_cooldown_s=20.0,
            )
        )
        cluster = Coordinator(
            sim, config, Catalog(), ObjectStore(), "tpch", obs=obs
        ).vm_cluster
        workers = []
        for index in range(12):  # hold 12 tasks open: far above high watermark
            cluster.submit(
                VmTask(task_id=f"t{index}", on_start=workers.append)
            )
        sim.run_until(10.0)
        # The venue series are derived at scrape time: collect, then read.
        obs.metrics.collect()
        counter = obs.metrics.get("pixels_vm_watermark_crossings_total")
        assert counter.value(watermark="high") == cluster.scale_out_events > 0
        assert 'watermark="low"' not in obs.metrics.render()
        # Release everything; after the window + cooldown the cluster
        # scales back in and counts the low-watermark crossing.
        while workers:
            cluster.release(workers.pop())
        sim.run_until(120.0)
        obs.metrics.collect()
        assert counter.value(watermark="low") == cluster.scale_in_events > 0
        assert obs.metrics.get("pixels_vm_workers").value() == 1
        # Both event counts are views over the autoscaler's audit log.
        actions = [decision.action for decision in cluster.audit_log]
        assert cluster.scale_out_events == actions.count("scale_out")
        assert cluster.scale_in_events == actions.count("scale_in")

    def test_venue_series_have_no_sample_before_their_first_event(self):
        sim, coordinator, _, obs = make_observed_stack()

        def sampled(text):
            return {
                line.split("{")[0].split(" ")[0]
                for line in text.splitlines()
                if line.startswith(("pixels_vm_", "pixels_cf_"))
                and not line.startswith("pixels_vm_pool_")
            }

        before = obs.metrics.render()
        # Registered (HELP/TYPE lines) from the start, as when the venues
        # registered them — but only the VM gauges have a value yet.
        for name in ("pixels_cf_invocations_total", "pixels_cf_active_workers",
                     "pixels_cf_worker_seconds_total",
                     "pixels_vm_watermark_crossings_total"):
            assert f"# TYPE {name} " in before
        assert sampled(before) == {
            "pixels_vm_workers", "pixels_vm_queue_depth", "pixels_vm_concurrency",
        }
        coordinator.cf_service.invoke("q", 3, 2.0, on_complete=lambda: None)
        during = obs.metrics.render()
        assert "pixels_cf_active_workers 3\n" in during
        assert "pixels_cf_invocations_total 1\n" in during
        assert "pixels_cf_worker_seconds_total 6\n" in during
        sim.run_until(5.0)
        assert "pixels_cf_active_workers 0\n" in obs.metrics.render()

    def test_derived_event_counts_keep_the_float_type_inc_gave_them(self):
        """``Counter.inc`` accumulated floats, and the time-series export
        prints 1.0 and 1 differently."""
        from repro.obs.timeseries import TimeSeriesStore, ScrapeLoop

        sim, coordinator, _, obs = make_observed_stack()
        loop = ScrapeLoop(sim, obs.metrics, TimeSeriesStore(), interval_s=1.0)
        coordinator.cf_service.invoke("q", 2, 0.5, on_complete=lambda: None)
        sim.run_until(1.0)
        exported = loop.store.export_jsonl()
        assert '"name": "pixels_cf_invocations_total", "time": 1.0, "value": 1.0}' in exported
        assert '"name": "pixels_cf_active_workers", "time": 1.0, "value": 0}' in exported

    def test_cf_worker_seconds_accumulate_the_way_the_counter_did(self):
        """A running ``+=``, not ``sum()``: ten times 0.1 is
        0.9999999999999999 by repeated addition and 1.0 by the compensated
        ``sum()`` of Python 3.12+, and the exposition prints every digit."""
        from repro.obs import MetricsRegistry

        _, coordinator, _, obs = make_observed_stack()
        pushed = MetricsRegistry().counter("reference")
        for _ in range(10):
            coordinator.cf_service.invoke("q", 1, 0.1, on_complete=lambda: None)
            pushed.inc(1 * 0.1)
        assert pushed.value() == 0.9999999999999999
        assert coordinator.cf_service.total_worker_seconds() == pushed.value()
        assert (
            "pixels_cf_worker_seconds_total 0.9999999999999999\n"
            in obs.metrics.render()
        )

    def test_two_schemas_report_the_sum_of_their_servers_and_venues(self):
        """Every server and coordinator of a two-schema db shares one
        registry: the derived series report their sum (the shared object
        store counted once), not whichever registered last."""
        db = PixelsDB(observe=True, seed=5)
        db.load_tpch("a", scale=0.01)
        db.load_tpch("b", scale=0.01)
        busy, idle = db.query_server("a"), db.query_server("b")
        busy.submit(SQL, ServiceLevel.IMMEDIATE)
        for _ in range(25):
            busy.submit(SQL, ServiceLevel.BEST_EFFORT, tenant="acme")
        idle.submit("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
        assert (busy.queued_best_effort, idle.queued_best_effort) == (25, 0)
        metrics = db.obs.metrics
        metrics.collect()

        def value(name, **labels):
            return metrics.get(name).value(**labels)

        assert value("pixels_server_queue_depth", level="best_effort") == 25
        assert value(
            "pixels_scheduler_queue_depth", tenant="acme", level="best_effort"
        ) == 25
        clusters = [db.coordinator(s).vm_cluster for s in ("a", "b")]
        assert [c.concurrency for c in clusters] == [1, 1]
        assert value("pixels_vm_concurrency") == 2
        assert value("pixels_vm_workers") == sum(c.num_workers for c in clusters)
        assert value("pixels_store_requests_total", kind="get") == (
            db.store.metrics.get_requests
        )
        pools = [db.coordinator(s).vm_buffer_pool for s in ("a", "b")]
        assert value("pixels_vm_pool_entries", kind="footer") == sum(
            pool.cached_footers for pool in pools
        ) > 0

    def test_rover_exposes_metrics_and_traces(self):
        from repro.rover import UserStore

        db = run_session()
        users = UserStore()
        users.register("ana", "pw", {"tpch"})
        rover = db.rover(users, "tpch")
        token = rover.login("ana", "pw")
        assert "pixels_queries_total" in rover.export(token, "metrics")
        trace = json.loads(rover.trace(token, "sq-1"))
        assert trace["trace_id"] == "sq-1"

    def test_rover_reads_one_trace_without_replaying_the_log(self, monkeypatch):
        from repro.errors import NoSuchQueryError
        from repro.obs import LifecycleLog
        from repro.rover import UserStore

        db = run_session()
        users = UserStore()
        users.register("ana", "pw", {"tpch"})
        rover = db.rover(users, "tpch")
        token = rover.login("ana", "pw")
        expected = db.obs.tracer.export_json("sq-1")

        def whole_log(*args):
            raise AssertionError("a one-trace read replayed the whole log")

        monkeypatch.setattr(LifecycleLog, "__iter__", whole_log)
        monkeypatch.setattr(LifecycleLog, "since", whole_log)
        assert rover.trace(token, "sq-1") == expected
        with pytest.raises(NoSuchQueryError):
            rover.trace(token, "no-such-query")
