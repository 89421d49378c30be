"""Prepared statements: two bounded caches per coordinator.  A text is
lexed once into its shape and literal vector; a shape is parsed, planned
and named once, and every text of it is bound into the shape's plan.

Three fences.  A plan is read-only once optimized: every execution path
(VM, CF, a VM-crash retry, a shared batch, EXPLAIN, EXPLAIN ANALYZE)
leaves the cached plan's rendering *and* its node structure as they were.
Every catalog mutation — through any coordinator over that catalog —
makes a cached text, and a text of a cached shape, prepare again, so
statistics still steer the build side and a statement over a dropped
table fails as it would uncached.  And the replays reuse what they
prepared: their cache, parse, fingerprint and plan-shape counts are
pinned.  That a bound plan equals a fresh one is fenced by
``tests/test_bound_plans.py``.
"""

import dataclasses
import importlib
import pathlib
import sys

import pytest

from repro import PixelsDB
from repro.engine.optimizer import Optimizer
from repro.engine.plan import HashJoin, PlanNode, walk_plan
from repro.engine.planner import Planner
from repro.engine.sql.parser import parse_sql
from repro.errors import BindError, NoSuchTableError, ParseError
from repro.lru import LruCache, STATEMENT_CACHE_ENTRIES
from repro.sim import Simulator
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.object_store import ObjectStore
from repro.storage.types import DataType
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.coordinator import ExecutionVenue
from repro.turbo.faults import FaultConfig
from repro.turbo.plan_split import split_plan
from repro.workloads import TpchGenerator, load_dataset

#: A cheap tail (TopN, Project) over an aggregate over a join: the CF
#: splitter has a tail to rebuild over its view.
SQL = (
    "SELECT o_orderpriority, count(*) AS n FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey GROUP BY o_orderpriority "
    "ORDER BY o_orderpriority LIMIT 3"
)
HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


def structure(node: PlanNode):
    """Every node's identity and every field: a child by its own
    structure, anything else by ``repr`` — a rewired input, a swapped
    side or an edited field all show."""
    fields = []
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        if isinstance(value, PlanNode):
            value = structure(value)
        elif isinstance(value, list) and any(
            isinstance(item, PlanNode) for item in value
        ):
            value = [structure(item) for item in value]
        else:
            value = repr(value)
        fields.append((spec.name, value))
    return type(node).__name__, id(node), fields


def stack(faults=None, seed=11):
    sim = Simulator(seed=seed)
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.05).tables())
    coordinator = Coordinator(
        sim, TurboConfig.fast(), catalog, store, "tpch", faults=faults
    )
    return sim, catalog, coordinator


def saturate(coordinator):
    """Fill every VM slot so the next CF-enabled query goes to CF."""
    while coordinator.vm_cluster.has_free_slot():
        coordinator.submit(HEAVY, cf_enabled=False)


class TestPlansStayAsPrepared:
    def _prepared(self, coordinator):
        prepared = coordinator._prepare(SQL)
        assert prepared.explain_mode is None
        plan = prepared.plan
        return plan, plan.explain(), structure(plan)

    def _assert_unchanged(self, coordinator, plan, text, shape):
        again = coordinator._prepare(SQL).plan
        assert again is plan  # served from the cache, not re-planned
        assert plan.explain() == text
        assert structure(plan) == shape

    def test_vm_run(self):
        sim, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        execution = coordinator.submit(SQL, cf_enabled=False)
        sim.run_until(600)
        assert execution.venue is ExecutionVenue.VM and execution.succeeded
        self._assert_unchanged(coordinator, plan, text, shape)

    def test_cf_run(self):
        sim, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        saturate(coordinator)
        execution = coordinator.submit(SQL, cf_enabled=True)
        sim.run_until(600)
        assert execution.venue is ExecutionVenue.CF and execution.succeeded
        self._assert_unchanged(coordinator, plan, text, shape)
        # A later VM run of the same text still runs the whole plan.
        vm = coordinator.submit(SQL, cf_enabled=False)
        sim.run_until(1200)
        assert vm.venue is ExecutionVenue.VM
        assert vm.result.rows() == execution.result.rows()

    def test_vm_crash_retry(self):
        sim, _, coordinator = stack(FaultConfig(vm_crash_rate=1.0, max_retries=2))
        plan, text, shape = self._prepared(coordinator)
        execution = coordinator.submit(SQL, cf_enabled=False)
        sim.run_until(600)
        assert execution.retries == 2 and not execution.succeeded
        self._assert_unchanged(coordinator, plan, text, shape)

    def test_shared_batch(self):
        sim, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        executions = coordinator.submit_shared_batch([SQL, SQL, HEAVY])
        sim.run_until(600)
        assert all(execution.succeeded for execution in executions)
        assert executions[0].result.rows() == executions[1].result.rows()
        self._assert_unchanged(coordinator, plan, text, shape)

    def test_explain(self):
        sim, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        saturate(coordinator)  # the report then names the CF venue
        report = coordinator.explain(SQL, cf_enabled=True)
        assert report.startswith(text) and "cf fan-out" in report
        self._assert_unchanged(coordinator, plan, text, shape)
        execution = coordinator.submit("EXPLAIN " + SQL, cf_enabled=True)
        assert execution.explain_text.startswith(text)
        self._assert_unchanged(coordinator, plan, text, shape)

    def test_explain_analyze(self):
        sim, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        coordinator.explain_analyze(SQL)
        self._assert_unchanged(coordinator, plan, text, shape)
        execution = coordinator.submit("EXPLAIN ANALYZE " + SQL, cf_enabled=True)
        sim.run_until(600)
        assert execution.succeeded
        self._assert_unchanged(coordinator, plan, text, shape)

    def test_split_plan_copies_the_tail(self):
        _, _, coordinator = stack()
        plan, text, shape = self._prepared(coordinator)
        split = split_plan(plan)
        assert split.top is not plan
        assert split.view in list(walk_plan(split.top))
        assert plan.explain() == text and structure(plan) == shape


class TestInvalidation:
    """Invalidation of one text prepared twice.  :class:`TestShapeInvalidation`
    runs every case again on two texts of one shape: the second is bound
    into the first's template, never planned."""

    #: The text prepared second, and the literals of the texts below.
    AGAIN = SQL
    LITERALS = (0, 0)

    def test_repeat_is_a_hit(self):
        _, _, coordinator = stack()
        first = coordinator._prepare(SQL).plan
        second = coordinator._prepare(self.AGAIN).plan
        cache, shapes = coordinator.prepared, coordinator.shapes
        if self.AGAIN == SQL:
            assert second is first
            assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)
        else:
            assert second is not first
            assert (cache.misses, cache.hits, len(cache)) == (2, 0, 2)
        assert (shapes.misses, shapes.hits, len(shapes)) == (
            1, int(self.AGAIN != SQL), 1
        )
        assert cache.capacity == shapes.capacity == STATEMENT_CACHE_ENTRIES

    GONE = [ColumnMeta("x", DataType.INT)]

    @pytest.mark.parametrize(
        "setup, mutate",
        [
            (None, lambda c: c.create_schema("staging")),
            (lambda c: c.create_schema("gone"), lambda c: c.drop_schema("gone")),
            (None, lambda c: c.create_table("tpch", "extra", TestInvalidation.GONE)),
            (
                lambda c: c.create_table("tpch", "gone", TestInvalidation.GONE),
                lambda c: c.drop_table("tpch", "gone"),
            ),
            (
                None,
                lambda c: c.add_foreign_key(
                    "tpch", "orders", "o_custkey", "customer", "c_custkey"
                ),
            ),
            (None, lambda c: c.update_statistics("tpch", "orders", 1, 1)),
        ],
        ids=[
            "create_schema", "drop_schema", "create_table", "drop_table",
            "add_foreign_key", "update_statistics",
        ],
    )
    def test_every_mutator_reprepares(self, setup, mutate):
        _, catalog, coordinator = stack()
        if setup is not None:
            setup(catalog)  # before the plan is cached: only mutate counts
        first = coordinator._prepare(SQL).plan
        version = catalog.version
        mutate(catalog)
        assert catalog.version == version + 1
        again = coordinator._prepare(self.AGAIN).plan
        assert again is not first
        assert coordinator.prepared.misses == 2
        assert coordinator.shapes.misses == 2  # the shape is planned again
        assert coordinator._prepare(self.AGAIN).plan is again

    def test_ddl_through_one_schema_invalidates_another(self):
        db = PixelsDB(seed=3)
        db.load_tpch("tpch", scale=0.01)
        db.load_logs("logs", num_rows=500)
        tpch, logs = db.coordinator("tpch"), db.coordinator("logs")
        first = tpch._prepare(SQL).plan
        logs.execute_ddl("CREATE TABLE notes (id INT, body VARCHAR)")
        assert tpch._prepare(self.AGAIN).plan is not first
        assert tpch.prepared.misses == 2 and logs.prepared.misses == 0
        assert tpch.shapes.misses == 2 and logs.shapes.misses == 0

    def test_statistics_flip_the_build_side(self):
        _, catalog, coordinator = stack()
        sql = (
            "SELECT c_name, o_orderkey FROM customer JOIN orders "
            "ON c_custkey = o_custkey WHERE o_totalprice > {}"
        )

        def build_table(literal):
            plan = coordinator._prepare(sql.format(literal)).plan
            (join,) = [n for n in walk_plan(plan) if isinstance(n, HashJoin)]
            return join.right.table.name

        customers = catalog.table("tpch", "customer").row_count
        orders = catalog.table("tpch", "orders").row_count
        first, again = self.LITERALS
        assert build_table(first) == "customer"  # the smaller side
        catalog.update_statistics("tpch", "customer", orders * 10, 1)
        catalog.update_statistics("tpch", "orders", customers, 1)
        assert build_table(again) == "orders"

    def test_dropped_table_fails_as_uncached(self):
        sim, catalog, coordinator = stack()
        sql = "SELECT count(*) FROM region WHERE r_regionkey >= {}"
        before, after = (sql.format(literal) for literal in self.LITERALS)
        ok = coordinator.submit(before, cf_enabled=False)
        sim.run_until(600)
        assert ok.succeeded
        coordinator.execute_ddl("DROP TABLE region")
        failed = coordinator.submit(after, cf_enabled=False)
        fresh = Coordinator(
            Simulator(seed=1), TurboConfig.fast(), catalog,
            coordinator.store, "tpch",
        )
        uncached = fresh.submit(after, cf_enabled=False)
        assert failed.error is not None
        assert failed.error == uncached.error
        assert "region" in failed.error
        # A bind failure is not stored: the post-drop entry keeps its
        # shape but no plan, and the next run binds again, identically.
        again = coordinator.submit(after, cf_enabled=False)
        assert again.error == failed.error
        assert len(coordinator.prepared) == 2  # pre-drop + post-drop entry
        assert coordinator.prepared.get((after, catalog.version)).plan is None
        with pytest.raises(NoSuchTableError) as first:
            coordinator._prepare(after)
        with pytest.raises(NoSuchTableError) as second:
            coordinator._prepare(after)
        assert first.value is not second.value
        assert str(first.value) == str(second.value) == failed.error

    def test_parse_error_is_cached(self):
        """A parse failure is part of the entry: the text is parsed once,
        and each run raises a fresh error of the class and message a
        fresh coordinator raises."""
        _, catalog, coordinator = stack()
        fresh = Coordinator(
            Simulator(seed=1), TurboConfig.fast(), catalog,
            coordinator.store, "tpch",
        )
        uncached = fresh.submit("SELEC 1", cf_enabled=False)
        for _ in range(2):
            execution = coordinator.submit("SELEC 1", cf_enabled=False)
            assert execution.error is not None
            assert execution.error == uncached.error
        assert len(coordinator.prepared) == 1
        assert (coordinator.prepared.misses, coordinator.prepared.hits) == (1, 1)
        assert len(coordinator.shapes) == 0  # a failed parse makes no shape
        raised = []
        for target in (coordinator, coordinator, fresh):
            with pytest.raises(ParseError) as info:
                target._prepare("SELEC 1")
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert {type(error) for error in raised} == {ParseError}
        assert len({str(error) for error in raised}) == 1
        assert raised[0].position == raised[2].position


class TestShapeInvalidation(TestInvalidation):
    """Every invalidation case on two texts of one shape, other literals."""

    AGAIN = SQL.replace("LIMIT 3", "LIMIT 7")
    LITERALS = (0, 2)

    def test_bad_date_fails_at_bind_as_uncached(self):
        """A bad DATE in a text of a planned shape raises the binder's own
        error when bound; a shape first seen with a bad DATE is planned
        from a text of good literals."""
        sql = "SELECT count(*) FROM orders WHERE o_orderdate < DATE '{}'"

        def outcome(plan):
            try:
                return plan().explain()
            except BindError as error:
                return type(error), str(error)

        for dates in (("1995-01-01", "1995-13-45"), ("1996-02-30", "1996-03-01")):
            _, catalog, coordinator = stack()
            planner = Planner(catalog, "tpch")
            for text in (sql.format(date) for date in dates):
                assert outcome(lambda: coordinator._prepare(text).plan) == outcome(
                    lambda: Optimizer().optimize(planner.plan(parse_sql(text)))
                ), text
            assert len(coordinator.shapes) == 1


class TestLruCache:
    def test_eviction_order_and_counts(self):
        cache: LruCache[str] = LruCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # "b" is now the oldest
        cache.put("c", "C")
        assert cache.get("b") is None
        assert cache.get("a") == "A" and cache.get("c") == "C"
        assert (cache.hits, cache.misses, cache.evictions) == (3, 1, 1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)


def replay_workloads():
    """The benchmark's workload module, imported without editing it."""
    layers = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "layers"
    sys.path.insert(0, str(layers))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(layers))


@pytest.fixture
def counts(monkeypatch):
    """Counts of the three per-statement computations: parses, statement
    fingerprints and plan-shape hashes (each wraps the function every
    caller of its kind goes through)."""
    from repro.engine.sql import parser

    # ``repro.obs`` re-exports the function under the module's name.
    fingerprint_module = importlib.import_module("repro.obs.fingerprint")
    tally = {"parse": 0, "fingerprint": 0, "shape": 0}

    def counting(module, name, kind):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            tally[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(parser, "parse_sql", "parse")
    counting(fingerprint_module, "_digest", "fingerprint")
    counting(fingerprint_module, "plan_shape", "shape")
    return tally


class TestReplayReuse:
    def test_hybrid_replay_counts(self, counts):
        """A seed-1 ``hybrid_replay`` replay prepares 128 distinct texts
        once each and serves the other 182 submissions from the cache.
        The texts are 8 shapes: each is parsed and planned once, and the
        other 120 texts are bound into their shape's plan.  The replay is
        unobserved, so it never fingerprints or hashes a shape."""
        workloads = replay_workloads()
        from repro.baselines.runner import run_workload

        replay = workloads.HybridReplay(1, {})
        replay.load()
        result = run_workload(
            replay.schedule, replay.store, replay.catalog, "tpch",
            TurboConfig.experiment(), horizon_s=0.0,
        )
        sim, server = result.sim, result.server
        for until in replay.boundaries:
            sim.run_until(until)
        while (until := replay.drain_until(sim, server)) is not None:
            sim.run_until(until)
        cache, shapes = result.coordinator.prepared, result.coordinator.shapes
        assert len(replay.schedule) == 310
        assert (cache.misses, cache.hits, cache.evictions) == (128, 182, 0)
        assert (shapes.misses, shapes.hits, len(shapes)) == (8, 120, 8)
        assert counts == {"parse": 8, "fingerprint": 0, "shape": 0}

    def test_fleet_sched_parses_each_shape_once(self, counts):
        """A seed-1 ``fleet_sched`` replay is observed: the recorder names
        every submission and every execution records its plan shape.  Its
        768 distinct texts are 14 shapes, each parsed, fingerprinted and
        shape-hashed once (for naming and planning both) across 2 028
        executions."""
        workloads = replay_workloads()
        replay = workloads.FleetSched(1, {})
        replay.load()
        sim, server = replay.build()
        for until in replay.boundaries:
            sim.run_until(until)
        while (until := replay.drain_until(sim, server)) is not None:
            sim.run_until(until)
        executions = [q.execution for q in server.queries if q.execution]
        assert len(executions) == 2028
        assert all(e.plan_shape is not None for e in executions if e.succeeded)
        assert len(server._coordinator.prepared) == 768
        assert len(server._coordinator.shapes) == 14
        assert counts == {"parse": 14, "fingerprint": 14, "shape": 14}
