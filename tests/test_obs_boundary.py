"""The observability boundary: one flag, two recorders, no twins.

Two fences.  A static one walks ``src/repro`` with :mod:`ast` and fails
when a per-sink switch, a null-object twin of any sink, a sink reached
from ``repro.core`` or ``repro.turbo`` other than through a recorder, an
instrument registered outside ``repro.obs``, a lifecycle sink that
reads, binds to or listens to another, or a bill priced anywhere but
the cost model's meter comes back, or anything but the two recorders
appends to the lifecycle log.  A
behavioural one runs a whole unobserved session — and an unobserved
coordinator on its own, through every execution path — and checks the
bundle: no sink recorded anything, and every read-side accessor of
:class:`~repro.PixelsDB` and :class:`~repro.rover.RoverServer` returns
the documented "nothing was watching" value; options that act only on
an observed stack are refused on an unobserved one.  And on an observed
stack neither recorder keeps state per query: the lifecycle log already
holds it.
"""

import ast
import pathlib

import pytest

from repro import (
    DB_EXPORTS,
    CapturePolicy,
    GuardPolicy,
    PixelsDB,
    QueryServer,
    ServiceLevel,
)
from repro.baselines.runner import Submission, run_workload
from repro.core import QueryStatus
from repro.errors import NoSuchQueryError
from repro.obs import EXPORTS, Instrumentation
from repro.rover import UserStore
from repro.sim import Simulator
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import Coordinator, TurboConfig
from repro.turbo.faults import FaultConfig
from repro.workloads import TpchGenerator, load_dataset

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SINKS = (
    "tracer", "metrics", "slo", "statements", "journal", "ledger", "spend",
    "activity",
)
#: What ``core`` and ``turbo`` may not take off an ``obs`` bundle (the
#: spend accountant is also the admission layer's budget input).
FENCED = (
    "tracer", "metrics", "slo", "statements", "journal", "ledger", "activity",
    "log", "enabled",
)
#: The reads that are the boundary itself, as (file, function, attribute):
#: the server tests the flag once to build its recorder and arm the guard,
#: and answers "was anything watching?" when asked for a profile.
ALLOWED_READS = {
    ("core/query_server.py", "__init__", "enabled"),
    ("core/query_server.py", "query_profile", "enabled"),
    ("core/query_server.py", "query_profile", "tracer"),
}
#: Every sink is a real object in both bundles; none has an inert twin.
NULL_OBJECTS: set[str] = set()
#: Registry and tracer entry points only ``repro.obs`` may call.
WRITER_CALLS = {"counter", "gauge", "histogram", "add_collector", "end_open"}
#: The functions that build an alert rule set (not methods of a sink):
#: ``Instrumentation.create`` calls them to assemble the observed stack.
RULE_SETS = {"default_rules", "budget_rules"}
#: The cost model's two terms of a bill: only its meter calls them.
PRICING_TERMS = {"user_price", "attribution"}
#: Where a bill is metered: the coordinator, as an execution window
#: opens (and for a plain EXPLAIN's zero reading).  That one reading is
#: both the activity registry's projection and the bill every surface
#: reads.
METER_SITES = [
    ("turbo/coordinator.py", "_open_window"),
]
#: The modules of the six lifecycle sinks, and the one runtime import
#: between them: the spend accountant is a view over the ledger.
LIFECYCLE_SINKS = ("slo", "statements", "journal", "ledger", "spend", "activity")
SINK_IMPORTS_ALLOWED = {("spend", "ledger")}


def parsed_sources(root: pathlib.Path = SRC):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def terminal_name(node: ast.expr) -> str | None:
    """``activity`` for ``self.obs.activity`` and ``self._activity``."""
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_")
    if isinstance(node, ast.Name):
        return node.id.lstrip("_")
    return None


def method_calls(node: ast.AST, function: str | None = None):
    """``(innermost enclosing function, method name)`` for every
    ``x.method(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from method_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            yield function, child.func.attr
        yield from method_calls(child, function)


class TestStaticFence:
    def test_no_per_sink_enabled_switch(self):
        offenders = [
            f"{name}:{node.lineno}"
            for name, tree in parsed_sources()
            if name != "obs/__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "enabled"
            and terminal_name(node.value) in SINKS
        ]
        assert offenders == []

    @pytest.mark.parametrize(
        "bundle", [Instrumentation.disabled(), Instrumentation.create()],
        ids=["disabled", "create"],
    )
    def test_sinks_carry_no_switch_of_their_own(self, bundle):
        assert [s for s in SINKS if hasattr(getattr(bundle, s), "enabled")] == []

    def test_no_sink_has_a_null_object_twin(self):
        noops = {
            node.name
            for _, tree in parsed_sources()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and "Noop" in node.name
        }
        assert noops == NULL_OBJECTS

    def test_core_reaches_lifecycle_sinks_only_to_arm_the_guard(self):
        """``repro.turbo`` is fenced as well as ``repro.core``, and the
        tracer, the registry and the flag as well as the lifecycle sinks."""

        def walk(node: ast.AST, function: str | None, in_guard: bool):
            """Yield (function, attribute node) for every fenced read off
            an ``obs`` bundle outside a ``ProjectionGuard(...)`` call."""
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Call)
                and terminal_name(node.func) == "ProjectionGuard"
            ):
                in_guard = True
            if (
                not in_guard
                and isinstance(node, ast.Attribute)
                and node.attr in FENCED
                and terminal_name(node.value) == "obs"
            ):
                yield function, node
            for child in ast.iter_child_nodes(node):
                yield from walk(child, function, in_guard)

        offenders = [
            f"{name}:{node.lineno} obs.{node.attr}"
            for package in ("core", "turbo")
            for name, tree in parsed_sources(SRC / package)
            for function, node in walk(tree, None, False)
            if (name, function, node.attr) not in ALLOWED_READS
        ]
        assert sorted(offenders) == []

    def test_only_obs_registers_instruments_and_closes_traces(self):
        offenders = [
            f"{name}:{node.lineno} .{node.func.attr}()"
            for name, tree in parsed_sources()
            if not name.startswith("obs/")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in WRITER_CALLS
        ]
        assert offenders == []

    def test_bundle_constructors_only_construct(self):
        """``Instrumentation.create`` / ``disabled`` wire nothing by
        calling into a sink: every call in them is a constructor (or one
        of the functions that build an alert rule set), none a method
        call on a sink."""
        tree = dict(parsed_sources())["obs/__init__.py"]
        bundle = next(
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Instrumentation"
        )
        factories = {
            node.name: node
            for node in bundle.body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("create", "disabled")
        }
        assert sorted(factories) == ["create", "disabled"]
        offenders = [
            f"{name}:{call.lineno} {ast.unparse(call.func)}()"
            for name, factory in factories.items()
            for call in ast.walk(factory)
            if isinstance(call, ast.Call)
            and not (
                isinstance(call.func, ast.Name)
                and (call.func.id[:1].isupper() or call.func.id in RULE_SETS)
            )
        ]
        assert offenders == []

    def test_the_observed_stack_is_assembled_in_one_place(self):
        """Only ``Instrumentation.create`` builds a scrape loop or an
        alert engine, and nothing attaches the guard's alert sink after
        construction."""
        builders = {
            f"{name}:{function.name}"
            for name, tree in parsed_sources()
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for call in ast.walk(function)
            if isinstance(call, ast.Call)
            and terminal_name(call.func) in ("ScrapeLoop", "AlertEngine")
        }
        assert builders == {"obs/__init__.py:create"}
        sink_writers = {
            f"{name}:{function.name}"
            for name, tree in parsed_sources()
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and any(terminal_name(target) == "alert_sink" for target in node.targets)
        }
        assert sink_writers == {"obs/activity.py:__init__"}

    def test_one_bill_per_query(self):
        """Only the cost model prices and splits a bill, and only the
        coordinator's window opening meters one: the server and the
        recorders read that reading."""
        sources = dict(parsed_sources())
        pricing = sorted(
            f"{name}:{function} .{method}()"
            for name, tree in sources.items()
            if name != "turbo/cost.py"
            for function, method in method_calls(tree)
            if method in PRICING_TERMS
        )
        assert pricing == []
        meters = sorted(
            (name, function)
            for name, tree in sources.items()
            for function, method in method_calls(tree)
            if method == "meter"
        )
        assert meters == METER_SITES
        # The request price is read where the reading is taken (and by
        # the object store that owns it), nowhere else.
        request_price = sorted(
            (name, function.name)
            for name, tree in sources.items()
            if not name.startswith("storage/")
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute)
            and node.attr == "get_price_per_1000"
        )
        assert request_price == METER_SITES

    def test_only_the_recorders_append_to_the_lifecycle_log(self):
        """One entry per transition: an append to the lifecycle log
        anywhere but in the two recorders would be a second writer."""

        def appends(node: ast.AST):
            return any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "append"
                and terminal_name(call.func.value) == "log"
                for call in ast.walk(node)
            )

        writers = sorted(
            (name, top.name if isinstance(top, ast.ClassDef) else "<module>")
            for name, tree in parsed_sources()
            for top in tree.body
            if appends(top)
        )
        assert writers == [
            ("obs/recorder.py", "ExecutionRecorder"),
            ("obs/recorder.py", "QueryRecorder"),
        ]

    def test_no_lifecycle_sink_binds_or_listens(self):
        offenders = [
            f"{name}:{node.lineno} {cls.name}.{node.name}"
            for name, tree in parsed_sources(SRC / "obs")
            if pathlib.PurePath(name).stem in LIFECYCLE_SINKS
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and (node.name.startswith("bind") or node.name == "add_listener")
        ]
        assert offenders == []

    def test_no_lifecycle_sink_imports_another(self):
        def runtime_imports(node: ast.AST):
            """Modules imported outside ``if TYPE_CHECKING:`` blocks."""
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                yield from (
                    module for child in node.orelse for module in runtime_imports(child)
                )
                return
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
            for child in ast.iter_child_nodes(node):
                yield from runtime_imports(child)

        offenders = sorted({
            f"{sink} -> {target}"
            for name, tree in parsed_sources(SRC / "obs")
            if (sink := pathlib.PurePath(name).stem) in LIFECYCLE_SINKS
            for module in runtime_imports(tree)
            if module.startswith("repro.obs.")
            and (target := module.split(".")[2]) in LIFECYCLE_SINKS
            and target != sink
            and (sink, target) not in SINK_IMPORTS_ALLOWED
        })
        assert offenders == []

    def test_venues_take_no_instrumentation(self):
        import inspect

        from repro.turbo import CfService, VmCluster

        for venue in (VmCluster, CfService):
            assert "obs" not in inspect.signature(venue).parameters


@pytest.fixture(scope="module")
def dark_session():
    """An unobserved session that walks every transition the recorder
    would have written: all three levels, a planning failure, a cancel."""
    db = PixelsDB(observe=False, seed=5)
    db.load_tpch("tpch", scale=0.01)
    for level in ServiceLevel:
        db.submit("tpch", "SELECT COUNT(*) FROM nation", level, tenant="acme")
    db.submit("tpch", "SELECT no_such_column FROM nation")
    doomed = db.submit(
        "tpch",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        ServiceLevel.RELAXED,
    )
    assert db.query_server("tpch").cancel(doomed.query_id)
    db.run_to_completion()
    assert db.query_server("tpch").total_billed_nanodollars() > 0
    users = UserStore()
    users.register("u", "p", {"tpch"})
    rover = db.rover(users, "tpch")
    return db, rover, rover.login("u", "p")


#: Per sink, what "nothing was recorded" looks like from its read API.
RECORDED = {
    "tracer": lambda s: s.trace_ids(),
    "metrics": lambda s: s.render(),
    "slo": lambda s: s.records(),
    "statements": lambda s: s.entries(),
    "journal": lambda s: s.records() + s.captures(),
    "ledger": lambda s: s.events(),
    "spend": lambda s: s.report()["events"],
    "activity": lambda s: s.entries() + s.projection_records(),
}

EMPTY_SPEND = {"tenants": [], "provider_nanodollars": {}, "events": 0, "voids": 0}
EMPTY_PROJECTIONS = {
    "queries": 0, "mape": 0.0, "max_ape": 0.0, "by_source": {}, "records": [],
}
#: Every export kind ``PixelsDB.export`` serves, by the name of the
#: per-kind accessor it replaced; each reads ``""`` unobserved.
DB_ACCESSORS = {
    "metrics": "metrics",
    "export_traces": "traces",
    "statements_json": "statements",
    "journal_jsonl": "journal",
    "ledger_jsonl": "ledger",
    "spend_json": "spend",
    "slo_json": "slo",
    "timeseries_jsonl": "timeseries",
    "alerts_jsonl": "alerts",
    "activity_json": "activity",
    "projection_json": "projections",
    "guard_audit_jsonl": "guard_audit",
    "autoscaler_audit_jsonl": "autoscaler_audit",
}
#: The other reads, by the accessor that offered them, and their
#: unobserved value: those that take parameters or span servers stay on
#: the facade, the pass-through ones are read off the bundle's sinks.
DB_READS = {
    "statements_top": (lambda db: db.statements_top(), ""),
    "guard_audit": (lambda db: db.guard_audit(), []),
    "journal_captures": (lambda db: db.obs.journal.captures(), []),
    "spend_report": (lambda db: db.obs.spend.report(), EMPTY_SPEND),
    "slo_report": (lambda db: db.obs.slo.snapshot(), {"levels": {}}),
    "activity": (
        lambda db: db.obs.activity.snapshot(),
        {"generated_at": 0.0, "states": {}, "queries": []},
    ),
    "projection_report": (
        lambda db: db.obs.activity.projection_report(), EMPTY_PROJECTIONS
    ),
}
#: Every export kind ``RoverServer.export`` serves, by the endpoint name
#: it had (or, new to Rover, its own); ``statements`` is the top-K table.
ROVER_ENDPOINTS = {
    "metrics": "metrics",
    "statements_json": "statements",
    "journal": "journal",
    "ledger": "ledger",
    "spend": "spend",
    "activity": "activity",
    "projections": "projections",
    "traces": "traces",
    "slo": "slo",
    "timeseries": "timeseries",
    "alerts": "alerts",
}


class TestUnobservedBundle:
    def test_the_flag_is_off(self, dark_session):
        db, _, _ = dark_session
        assert db.obs.enabled is False
        assert Instrumentation.create().enabled is True

    @pytest.mark.parametrize("sink", SINKS)
    def test_sink_recorded_nothing(self, dark_session, sink):
        db, _, _ = dark_session
        assert not RECORDED[sink](getattr(db.obs, sink))

    def test_every_export_kind_is_checked(self):
        assert sorted(DB_ACCESSORS.values()) == sorted([*EXPORTS, *DB_EXPORTS])
        assert sorted(ROVER_ENDPOINTS.values()) == sorted(EXPORTS)

    @pytest.mark.parametrize("accessor", sorted([*DB_ACCESSORS, *DB_READS]))
    def test_pixelsdb_accessor(self, dark_session, accessor):
        db, _, _ = dark_session
        if accessor in DB_ACCESSORS:
            assert db.export(DB_ACCESSORS[accessor]) == ""
        else:
            read, empty = DB_READS[accessor]
            assert read(db) == empty

    @pytest.mark.parametrize("endpoint", sorted([*ROVER_ENDPOINTS, "statements"]))
    def test_rover_endpoint(self, dark_session, endpoint):
        _, rover, token = dark_session
        if endpoint == "statements":
            assert rover.statements(token) == ""
        else:
            assert rover.export(token, ROVER_ENDPOINTS[endpoint]) == ""

    def test_rover_has_no_trace_to_serve(self, dark_session):
        db, rover, token = dark_session
        query_id = db.query_server("tpch").queries[0].query_id
        with pytest.raises(NoSuchQueryError):
            rover.trace(token, query_id)

    def test_unobserved_replay_exports_nothing(self):
        store, catalog = ObjectStore(), Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.01).tables())
        result = run_workload(
            [Submission(0.0, "SELECT count(*) FROM nation", ServiceLevel.IMMEDIATE)],
            store,
            catalog,
            "tpch",
        )
        assert result.finished()
        assert result.obs is result.coordinator.obs
        assert not result.obs.enabled
        assert {kind: result.obs.export(kind) for kind in EXPORTS} == dict.fromkeys(
            EXPORTS, ""
        )
        with pytest.raises(ValueError, match="observe=True"):
            result.dashboard_data("dark")

    def test_dashboard_and_reconciler_read_an_empty_bundle(self, dark_session):
        db, _, _ = dark_session
        data = db.dashboard_data()
        assert data.slo == {"levels": {}}
        assert data.top_statements == [] and data.tenant_spend == []
        assert data.activity == {}
        assert "PixelsDB operator dashboard" in db.dashboard_text()
        # Billed queries, no ledger: there are no books to reconcile.
        with pytest.raises(ValueError, match="observe=True"):
            db.reconcile()


class TestUnobservedCoordinator:
    """A coordinator on its own, unobserved, walks every execution path
    and its (real, not inert) tracer and registry stay empty — what the
    deleted ``NoopTracer`` / ``NoopMetricsRegistry`` unit tests checked of
    the twins, checked of the system."""

    HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"

    def test_every_execution_path_writes_nothing(self):
        sim = Simulator(seed=3)
        store, catalog = ObjectStore(), Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.01).tables())
        coordinator = Coordinator(
            sim, TurboConfig.fast(), catalog, store, "tpch",
            faults=FaultConfig(vm_crash_rate=0.5, cf_failure_rate=0.5,
                               max_retries=8),
        )
        slots = TurboConfig.fast().vm.slots_per_worker
        on_vm = [coordinator.submit(self.HEAVY, cf_enabled=False)
                 for _ in range(slots + 1)]  # the last one waits in the queue
        on_cf = coordinator.submit(self.HEAVY, cf_enabled=True)
        unplannable = coordinator.submit("SELECT nope FROM nation", False)
        batch = coordinator.submit_shared_batch(
            ["SELECT count(*) FROM nation", "SELECT max(n_name) FROM nation"]
        )
        assert coordinator.cancel(on_vm[-1].query_id)
        sim.run_until(3600)

        assert on_cf.venue.value == "cf" and on_cf.succeeded
        assert all(e.succeeded for e in on_vm[:-1] + batch)
        assert on_vm[-1].error == "cancelled by user"
        assert "nope" in unplannable.error
        assert any(e.retries for e in [*on_vm, on_cf]), "no fault was injected"
        obs = coordinator.obs
        assert obs.enabled is False
        assert obs.metrics.render() == ""
        assert obs.metrics.instruments() == []
        assert obs.tracer.trace_ids() == []
        assert obs.tracer.export_all_json() == "[]\n"
        assert on_cf.profile is None and on_cf.plan_shape is None


class TestObservedOnlyOptions:
    """An option that only acts on an observed stack is refused on an
    unobserved one instead of being dropped."""

    @pytest.mark.parametrize(
        "option, value",
        [
            ("alert_rules", []),
            ("capture", CapturePolicy()),
            ("tenant_budgets", {"acme": 1.0}),
            ("guard", GuardPolicy()),
        ],
    )
    def test_pixelsdb_refuses_them_unobserved(self, option, value):
        with pytest.raises(ValueError, match=f"{option}="):
            PixelsDB(observe=False, **{option: value})
        PixelsDB(observe=True, **{option: value})

    def test_query_server_refuses_a_guard_over_an_unobserved_coordinator(self):
        sim = Simulator(seed=1)
        config = TurboConfig.fast()
        coordinator = Coordinator(sim, config, Catalog(), ObjectStore(), "tpch")
        with pytest.raises(ValueError, match="guard="):
            QueryServer(sim, coordinator, config, guard=GuardPolicy())
        assert QueryServer(sim, coordinator, config).guard is None


class TestRecordersKeepNoPerQueryState:
    """What a query's transitions need again is named in the lifecycle
    log (its root and queue spans are resolved when the log is folded)
    or kept per SQL text (its fingerprint), so no recorder container
    grows with the held queue."""

    SQL = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"

    @staticmethod
    def container_sizes(recorder) -> dict[str, int]:
        return {
            name: len(value)
            for name, value in vars(recorder).items()
            if isinstance(value, (dict, list, set, tuple))
        }

    def held_stack(self, dataset, held: int):
        store, catalog = dataset
        sim = Simulator(seed=3)
        config = TurboConfig.fast()
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
        server = QueryServer(sim, coordinator, config)
        server.submit(self.SQL, ServiceLevel.IMMEDIATE)  # the blocker
        records = [
            server.submit(self.SQL, ServiceLevel.BEST_EFFORT, tenant="acme")
            for _ in range(held)
        ]
        assert server.queued_best_effort == held
        assert all(r.status is QueryStatus.PENDING for r in records)
        return server, coordinator

    def test_held_queries_grow_no_recorder_container(self):
        store, catalog = ObjectStore(), Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.01).tables())
        one_server, one_coordinator = self.held_stack((store, catalog), 1)
        ten_server, ten_coordinator = self.held_stack((store, catalog), 10)
        for one, ten in (
            (one_server._recorder, ten_server._recorder),
            (one_coordinator._recorder, ten_coordinator._recorder),
        ):
            assert self.container_sizes(one) == self.container_sizes(ten)
