"""End-to-end billing reconciliation tests.

The positive direction proves the tentpole equality chain on a real
observed workload — ledger axis sum == profiler attribution split ==
billed price == $/TB bytes basis, all in exact integer nanodollars —
and the negative direction corrupts ledgers in specific ways and
requires the reconciler to name each violated invariant.
"""


import pytest

from repro import PixelsDB, ServiceLevel
from repro.obs.ledger import AXES, load_events_jsonl
from repro.obs.profiler import NANOS_PER_DOLLAR
from repro.obs.reconcile import (
    bytes_basis_nanodollars,
    main as reconcile_main,
    reconcile_events,
    reconcile_server,
)


@pytest.fixture(scope="module")
def observed_db():
    db = PixelsDB(observe=True, seed=9)
    db.load_tpch("tpch", scale=0.02)
    queries = [
        ("SELECT * FROM lineitem", ServiceLevel.IMMEDIATE, "acme"),
        ("SELECT count(*) FROM orders", ServiceLevel.RELAXED, "acme"),
        ("SELECT * FROM customer", ServiceLevel.BEST_EFFORT, "beta"),
        ("SELECT count(*) FROM lineitem", ServiceLevel.IMMEDIATE, None),
    ]
    for sql, level, tenant in queries:
        db.submit("tpch", sql, level, tenant=tenant)
    db.run_to_completion()
    return db


class TestEqualityChain:
    """The four audit surfaces agree exactly, per query."""

    def test_reconciliation_is_clean(self, observed_db):
        report = observed_db.reconcile()
        assert report.ok, report.render()
        assert report.queries_checked > 0
        assert report.events_checked == len(observed_db.obs.ledger)

    def test_ledger_net_equals_integer_bill_per_query(self, observed_db):
        server = observed_db.query_server("tpch")
        ledger = observed_db.obs.ledger
        for record in server.queries:
            net = ledger.net_nanodollars(record.query_id)
            assert net == record.price_nanodollars
            assert net == round(record.price * NANOS_PER_DOLLAR)

    def test_ledger_axes_equal_profiler_split(self, observed_db):
        server = observed_db.query_server("tpch")
        ledger = observed_db.obs.ledger
        for record in server.queries:
            profile = server.query_profile(record.query_id)
            assert profile.bill is record.bill
            by_axis = {axis: 0 for axis in AXES}
            for event in ledger.events_for(record.query_id):
                if event.account == "user" and event.kind == "charge":
                    by_axis[event.axis] += event.nanodollars
            assert by_axis == record.bill.axes
            # ... and the profile tree sums to the same integer bill.
            tree = sum(n.self_nanodollars for n in profile.root.walk())
            assert tree == record.price_nanodollars

    def test_bytes_basis_matches_stamped_bill(self, observed_db):
        inflation = observed_db.config.data_inflation
        for event in observed_db.obs.ledger.events():
            if event.account != "user" or event.kind != "charge":
                continue
            assert event.data_inflation == inflation
            assert (
                bytes_basis_nanodollars(
                    event.bytes_scanned,
                    event.data_inflation,
                    event.price_per_tb,
                )
                == event.billed_nanodollars
            )

    def test_server_total_is_exact_integer_sum(self, observed_db):
        server = observed_db.query_server("tpch")
        assert server.total_billed_nanodollars() == sum(
            q.price_nanodollars for q in server.queries
        )
        assert server.total_billed() == (
            server.total_billed_nanodollars() / NANOS_PER_DOLLAR
        )

    def test_statement_store_agrees_with_ledger_per_tenant(self, observed_db):
        """Σ statement-store nanodollars == Σ ledger user charges — the
        shared splitter keeps every surface on the same integers."""
        store_total = sum(
            e.nanodollars for e in observed_db.obs.statements.entries()
        )
        assert store_total == observed_db.obs.ledger.total_nanodollars("user")

    def test_standalone_replay_of_export_is_clean(self, observed_db):
        events = load_events_jsonl(observed_db.export("ledger"))
        report = reconcile_events(events)
        assert report.ok, report.render()
        assert report.total_nanodollars == (
            observed_db.obs.ledger.total_nanodollars("user")
        )


class TestCrossSchemaIds:
    def test_two_schemas_never_share_a_query_id(self):
        # One observability bundle serves every schema's server, so the
        # ledger, profiler and activity registry key on the id alone.
        db = PixelsDB(observe=True, seed=9)
        queries = []
        for schema in ("a", "b"):
            db.load_tpch(schema, scale=0.02)
            queries.append(
                db.submit(schema, "SELECT count(*) FROM orders", ServiceLevel.IMMEDIATE)
            )
        db.run_to_completion()
        assert [q.query_id for q in queries] == ["sq-1", "sq-2"]
        report = db.reconcile()
        assert report.ok, report.render()
        assert len(db.obs.activity.entries()) == 2


class TestNamedViolations:
    """Seeded corruptions are detected and named — zero tolerance."""

    def _events(self, observed_db):
        return list(observed_db.obs.ledger.events())

    def _user_charge_index(self, events, axis="bandwidth"):
        return next(
            i
            for i, e in enumerate(events)
            if e.kind == "charge" and e.account == "user" and e.axis == axis
        )

    def test_one_nanodollar_drift_is_detected(self, observed_db):
        events = self._events(observed_db)
        i = self._user_charge_index(events)
        events[i] = events[i]._replace(
            nanodollars=events[i].nanodollars + 1
        )
        report = reconcile_events(events)
        assert not report.ok
        assert {v.invariant for v in report.violations} == {
            "ledger.charge_sums_to_bill"
        }
        assert report.violations[0].query_id == events[i].query_id

    def test_tampered_bytes_basis_is_detected(self, observed_db):
        events = self._events(observed_db)
        i = self._user_charge_index(events)
        events[i] = events[i]._replace(
            bytes_scanned=events[i].bytes_scanned + 1000
        )
        report = reconcile_events(events)
        assert "ledger.bytes_basis" in {
            v.invariant for v in report.violations
        }

    def test_reordered_sequence_is_detected(self, observed_db):
        events = self._events(observed_db)
        events[0], events[1] = events[1], events[0]
        report = reconcile_events(events)
        assert "ledger.sequence_monotonic" in {
            v.invariant for v in report.violations
        }

    def test_negative_charge_is_detected(self, observed_db):
        events = self._events(observed_db)
        i = self._user_charge_index(events)
        events[i] = events[i]._replace(nanodollars=-5)
        report = reconcile_events(events)
        assert "ledger.charge_sign" in {
            v.invariant for v in report.violations
        }

    def test_unknown_axis_is_detected(self, observed_db):
        events = self._events(observed_db)
        events[0] = events[0]._replace(axis="gpu")
        report = reconcile_events(events)
        assert "ledger.schema" in {v.invariant for v in report.violations}

    def test_partial_void_is_detected(self, observed_db):
        """Voiding only one axis leaves a non-zero net — caught."""
        events = self._events(observed_db)
        i = self._user_charge_index(events)
        tail = events[i]._replace(
            seq=events[-1].seq + 1,
            kind="void",
            nanodollars=-(events[i].nanodollars // 2) - 1,
        )
        report = reconcile_events(events + [tail])
        assert "ledger.void_nets_zero" in {
            v.invariant for v in report.violations
        }

    def test_dropped_ledger_entry_is_detected_server_side(self, observed_db):
        """An in-memory ledger that lost a query's events (simulated via
        a fresh server cross-check) trips ledger.missing_query."""
        server = observed_db.query_server("tpch")
        ledger = server.obs.ledger
        victim = next(q for q in server.queries if q.price_nanodollars > 0)
        stolen = ledger._by_query.pop(victim.query_id)
        try:
            report = reconcile_server(server)
        finally:
            ledger._by_query[victim.query_id] = stolen
        assert "ledger.missing_query" in {
            v.invariant for v in report.violations
        }

    def test_axis_shuffle_that_keeps_the_sum_is_detected(self, observed_db):
        """One nanodollar moved between two axes of one billed query's
        charges keeps the sum, the stamps and the bytes basis — only the
        per-axis check against the bill's split can see it."""
        server = observed_db.query_server("tpch")
        ledger = server.obs.ledger
        events = ledger._events
        victim = next(
            q for q in server.queries if q.bill is not None and q.bill.axes["bandwidth"]
        )
        i, j = (
            next(
                e.seq
                for e in ledger.events_for(victim.query_id)
                if e.account == "user" and e.kind == "charge" and e.axis == axis
            )
            for axis in ("bandwidth", "compute")
        )
        original = events[i], events[j]
        events[i] = events[i]._replace(nanodollars=events[i].nanodollars - 1)
        events[j] = events[j]._replace(nanodollars=events[j].nanodollars + 1)
        try:
            report = reconcile_server(server)
        finally:
            events[i], events[j] = original
        assert {(v.invariant, v.query_id) for v in report.violations} == {
            ("ledger.matches_profiler_attribution", victim.query_id)
        }
        assert reconcile_server(server).ok

    def test_violation_report_round_trips_to_json(self, observed_db):
        events = self._events(observed_db)
        i = self._user_charge_index(events)
        events[i] = events[i]._replace(
            nanodollars=events[i].nanodollars + 1
        )
        report = reconcile_events(events)
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["violations"][0]["invariant"] == (
            "ledger.charge_sums_to_bill"
        )
        assert "VIOLATION" in report.render()


class TestReconcileCli:
    def test_cli_accepts_clean_and_rejects_corrupt(
        self, observed_db, tmp_path, capsys
    ):
        clean = tmp_path / "clean.jsonl"
        clean.write_text(observed_db.export("ledger"), encoding="utf-8")
        assert reconcile_main([str(clean)]) == 0

        events = list(observed_db.obs.ledger.events())
        i = next(
            i
            for i, e in enumerate(events)
            if e.kind == "charge" and e.account == "user"
        )
        events[i] = events[i]._replace(
            nanodollars=events[i].nanodollars + 1
        )
        from repro.obs.ledger import events_jsonl

        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(events_jsonl(events), encoding="utf-8")
        assert reconcile_main([str(corrupt)]) == 1
        out = capsys.readouterr().out
        assert "ledger.charge_sums_to_bill" in out

    def test_cli_usage_without_args(self):
        assert reconcile_main([]) == 2
