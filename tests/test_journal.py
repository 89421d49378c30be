"""Tests for the query journal and its tail-based capture policy
(repro.obs.journal).

The journal is an append-only JSONL event log where every record joins
the tracer (trace/span ids) and the statement store (fingerprint); the
capture policy decides at completion time which queries get the full
profile evidence attached.
"""

import json

from repro.obs.journal import CapturePolicy, QueryJournal


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestEvents:
    def test_record_carries_correlation_ids(self):
        clock = FakeClock()
        journal = QueryJournal(clock)
        clock.now = 12.5
        journal.event(
            "submit", "q-1", span_id=7, fingerprint="abc", level="relaxed",
            deadline_s=300.0,
        )
        assert journal.records() == [{
            "ts": 12.5,
            "event": "submit",
            "query_id": "q-1",
            "trace_id": "q-1",
            "span_id": 7,
            "fingerprint": "abc",
            "level": "relaxed",
            "deadline_s": 300.0,
        }]

    def test_trace_id_defaults_to_query_id(self):
        journal = QueryJournal()
        journal.event("submit", "q-9")
        assert journal.records()[0]["trace_id"] == "q-9"

    def test_while_open_labels_only_rows_written_under_an_open_span(self):
        from repro.obs import ROOT, Tracer
        from repro.obs.lifecycle import LifecycleLog

        log = LifecycleLog()
        tracer, journal = Tracer(log=log), QueryJournal(log=log)
        root = tracer.start("q-1", "query", parent=ROOT)
        for event in ("open", "closed"):
            journal.event(
                event, "q-1", span_id=ROOT, fingerprint="abc", while_open=True
            )
            tracer.end_open("q-1")
        journal.event("finish", "q-1", span_id=ROOT, fingerprint="abc")
        labels = [(r["span_id"], r["fingerprint"]) for r in journal.records()]
        assert labels == [(root, "abc"), (None, None), (root, "abc")]

    def test_export_jsonl_round_trips(self):
        journal = QueryJournal()
        journal.event("submit", "q-1")
        journal.event("finish", "q-1", billed_dollars=0.001)
        lines = journal.export_jsonl().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["event"] for line in lines] == [
            "submit", "finish",
        ]

    def test_empty_export_is_empty_string(self):
        assert QueryJournal().export_jsonl() == ""


class TestCapturePolicy:
    def test_deadline_violation_triggers(self):
        journal = QueryJournal(policy=CapturePolicy(slowest_n=0))
        assert journal.capture_reasons(
            time_s=1.0, billed=0.1, slack_s=-2.0, error=False
        ) == ["deadline_violation"]
        assert journal.capture_reasons(
            time_s=1.0, billed=0.1, slack_s=2.0, error=False
        ) == []

    def test_error_triggers(self):
        journal = QueryJournal(policy=CapturePolicy(slowest_n=0))
        assert journal.capture_reasons(
            time_s=None, billed=None, slack_s=None, error=True
        ) == ["error"]

    def test_dollar_threshold(self):
        journal = QueryJournal(
            policy=CapturePolicy(dollar_threshold=0.01, slowest_n=0)
        )
        assert journal.capture_reasons(
            time_s=1.0, billed=0.02, slack_s=None, error=False
        ) == ["dollar_threshold"]
        assert journal.capture_reasons(
            time_s=1.0, billed=0.001, slack_s=None, error=False
        ) == []

    def test_slowest_ring_admits_only_the_tail(self):
        journal = QueryJournal(policy=CapturePolicy(slowest_n=2))
        # First N always qualify.
        assert journal.capture_reasons(
            time_s=1.0, billed=None, slack_s=None, error=False
        ) == ["slowest_2"]
        assert journal.capture_reasons(
            time_s=5.0, billed=None, slack_s=None, error=False
        ) == ["slowest_2"]
        # Faster than the ring floor: no capture.
        assert journal.capture_reasons(
            time_s=0.5, billed=None, slack_s=None, error=False
        ) == []
        # Slower than the floor: joins, evicting the old floor.
        assert journal.capture_reasons(
            time_s=3.0, billed=None, slack_s=None, error=False
        ) == ["slowest_2"]

    def test_disabled_clauses_never_trigger(self):
        journal = QueryJournal(
            policy=CapturePolicy(
                capture_violations=False, capture_errors=False, slowest_n=0
            )
        )
        assert journal.capture_reasons(
            time_s=9.9, billed=9.9, slack_s=-9.9, error=True
        ) == []


class TestCapture:
    def test_capture_without_profile(self):
        journal = QueryJournal()
        assert journal.capture("q-1", ["error"], None, level="immediate")
        record = journal.records()[-1]
        assert record["event"] == "capture"
        assert record["reasons"] == ["error"]
        assert "profile" not in record
        assert journal.captures() == [record]

    def test_max_captures_drops_with_breadcrumb(self):
        journal = QueryJournal(policy=CapturePolicy(max_captures=1))
        assert journal.capture("q-1", ["error"], None) is True
        assert journal.capture("q-2", ["error"], None) is False
        assert journal.dropped_captures == 1
        events = [r["event"] for r in journal.records()]
        assert events == ["capture", "capture_dropped"]

    def test_capture_attaches_profile_evidence(self, turbo_env):
        from repro.core import QueryServer, ServiceLevel
        from repro.obs import Instrumentation
        from repro.turbo import Coordinator

        sim, store, catalog, config, _, _ = turbo_env
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
        server = QueryServer(sim, coordinator, config)
        record = server.submit("SELECT count(*) FROM orders",
                               ServiceLevel.IMMEDIATE)
        sim.run_until(120)
        profile = server.query_profile(record.query_id)
        journal = obs.journal
        journal.capture(
            record.query_id, ["slowest_8"], profile, level="immediate"
        )
        capture = journal.captures()[-1]
        assert capture["profile"]["name"] == "query"
        assert capture["profile"]["children"]
        assert capture["flamegraph_svg"].startswith("<svg")
        assert capture["billed_nanodollars"] == profile.billed_nanodollars
        # The capture is a journal record too: it exports with the rest.
        assert '"event": "capture"' in journal.export_jsonl()
