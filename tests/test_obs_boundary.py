"""The observability boundary: one flag, one recorder, no twins.

Two fences.  A static one walks ``src/repro`` with :mod:`ast` and fails
when a per-sink switch, a null-object twin of a lifecycle sink, or a
direct write from ``repro.core`` into a lifecycle sink comes back.  A
behavioural one runs a whole unobserved session and checks the bundle:
no sink recorded anything, and every read-side accessor of
:class:`~repro.PixelsDB` and :class:`~repro.rover.RoverServer` returns
the documented "nothing was watching" value.
"""

import ast
import pathlib

import pytest

from repro import PixelsDB, ServiceLevel
from repro.errors import NoSuchQueryError
from repro.obs import Instrumentation
from repro.rover import UserStore

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SINKS = (
    "tracer", "metrics", "slo", "statements", "journal", "ledger", "spend",
    "activity",
)
LIFECYCLE_SINKS = ("slo", "statements", "journal", "ledger", "activity")
#: Tracer and metrics are called from dozens of sites woven through
#: execution control flow, where a null object is the simplest guard.
NULL_OBJECTS = {"_NoopSpan", "NoopTracer", "_NoopInstrument", "NoopMetricsRegistry"}


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

    def test_only_tracer_and_metrics_keep_null_objects(self):
        noops = {
            node.name
            for _, tree in parsed_sources()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and "Noop" in node.name
        }
        assert noops == NULL_OBJECTS

    def test_core_reaches_lifecycle_sinks_only_to_arm_the_guard(self):
        def sink_reads(tree: ast.AST) -> set[ast.Attribute]:
            return {
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in LIFECYCLE_SINKS
                and terminal_name(node.value) == "obs"
            }

        offenders = []
        for name, tree in parsed_sources(SRC / "core"):
            allowed: set[ast.Attribute] = set()
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and terminal_name(node.func) == "ProjectionGuard"
                ):
                    allowed |= sink_reads(node)
            offenders += [
                f"{name}:{node.lineno} obs.{node.attr}"
                for node in sink_reads(tree) - allowed
            ]
        assert sorted(offenders) == []


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
DB_ACCESSORS = {
    "metrics": "",
    "export_traces": "[]",
    "statements_top": "",
    "statements_json": "",
    "journal_jsonl": "",
    "journal_captures": [],
    "ledger_jsonl": "",
    "spend_report": EMPTY_SPEND,
    "spend_json": "",
    "slo_report": {"levels": {}},
    "slo_json": '{"records": [], "summary": {"levels": {}}}',
    "timeseries_jsonl": "",
    "alerts_jsonl": "",
    "activity": {"generated_at": 0.0, "states": {}, "queries": []},
    "activity_json": "",
    "projection_report": EMPTY_PROJECTIONS,
    "projection_json": "",
    "guard_audit": [],
    "guard_audit_jsonl": "",
}
ROVER_ENDPOINTS = (
    "metrics", "statements", "statements_json", "journal", "ledger", "spend",
    "activity", "projections",
)


class TestUnobservedBundle:
    def test_the_flag_is_off(self, dark_session):
        db, _, _ = dark_session
        assert db.obs.enabled is False
        assert Instrumentation.create().enabled is True

    @pytest.mark.parametrize("sink", SINKS)
    def test_sink_recorded_nothing(self, dark_session, sink):
        db, _, _ = dark_session
        assert not RECORDED[sink](getattr(db.obs, sink))

    @pytest.mark.parametrize("accessor", sorted(DB_ACCESSORS))
    def test_pixelsdb_accessor(self, dark_session, accessor):
        db, _, _ = dark_session
        assert getattr(db, accessor)() == DB_ACCESSORS[accessor]

    @pytest.mark.parametrize("endpoint", ROVER_ENDPOINTS)
    def test_rover_endpoint(self, dark_session, endpoint):
        _, rover, token = dark_session
        assert getattr(rover, endpoint)(token) == ""

    def test_rover_has_no_trace_to_serve(self, dark_session):
        db, rover, token = dark_session
        query_id = db.query_server("tpch").queries[0].query_id
        with pytest.raises(NoSuchQueryError):
            rover.trace(token, query_id)

    def test_dashboard_and_reconciler_read_an_empty_bundle(self, dark_session):
        db, _, _ = dark_session
        data = db.dashboard_data()
        assert data.slo == {"levels": {}}
        assert data.top_statements == [] and data.tenant_spend == []
        assert data.activity == {}
        assert "PixelsDB operator dashboard" in db.dashboard_text()
        # Billed queries, no ledger: the reconciler says so, per query.
        report = db.reconcile()
        assert not report.ok
