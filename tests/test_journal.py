"""Tests for the query journal and its tail-based capture policy
(repro.obs.journal).

The journal is an append-only JSONL event log where every record joins
the tracer (trace/span ids) and the statement store (fingerprint); the
capture policy decides at completion time which queries get the full
profile evidence attached.
"""

import json

from repro.obs.journal import CapturePolicy, QueryJournal
from repro.obs.lifecycle import COMPLETE, GUARD, REJECT, SUBMIT, LifecycleLog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def submit(log, query_id, fingerprint="abc", level="relaxed", deadline_s=300.0):
    """A submission's transition, as the query recorder appends it."""
    return log.append(
        query_id, SUBMIT, level, level, "default", deadline_s, 5.0, 1.0,
        fingerprint, "SELECT 1", "admit", None,
    )


def guard(log, query_id, fingerprint="abc", level="relaxed"):
    log.append(query_id, GUARD, level, fingerprint, "deadline", "alert", True, "late")


def complete(log, query_id, reasons=None, kept=True, evidence=None,
             fingerprint="abc"):
    """A failed completion, with the capture policy's ``reasons`` (and
    whether the cap ``kept`` the capture)."""
    log.append(
        query_id, COMPLETE, "immediate", fingerprint, 0, "boom", False,
        "vm", 1.0, 0.5, None, None, 0.0, 5.0, 1.0, 0, 0, None, None, None,
        reasons, kept, evidence,
    )


class TestEvents:
    def test_record_carries_correlation_ids(self):
        clock = FakeClock()
        log = LifecycleLog(clock)
        journal = QueryJournal(log=log)
        clock.now = 12.5
        root = submit(log, "q-1")
        assert journal.records() == [{
            "ts": 12.5,
            "event": "submit",
            "query_id": "q-1",
            "trace_id": "q-1",
            "span_id": root,
            "fingerprint": "abc",
            "level": "relaxed",
            "deadline_s": 300.0,
            "price_per_tb": 5.0,
            "tenant": "default",
        }]

    def test_trace_id_defaults_to_query_id(self):
        log = LifecycleLog()
        submit(log, "q-9")
        assert QueryJournal(log=log).records()[0]["trace_id"] == "q-9"

    def test_while_open_labels_only_rows_written_under_an_open_span(self):
        log = LifecycleLog()
        journal = QueryJournal(log=log)
        root = submit(log, "q-1")
        guard(log, "q-1")
        log.append("q-1", REJECT, "relaxed", "abc", "full", "queue_full")
        guard(log, "q-1")
        complete(log, "q-1")
        labels = [
            (r["event"], r["span_id"], r["fingerprint"]) for r in journal.records()
        ]
        assert labels == [
            ("submit", root, "abc"),
            ("guard", root, "abc"),  # while the root is open
            ("reject", None, "abc"),  # the trace is closed by now
            ("guard", None, None),  # "while open", after the close
            ("error", root, "abc"),  # labelled with the root regardless
        ]

    def test_export_jsonl_round_trips(self):
        log = LifecycleLog()
        journal = QueryJournal(log=log)
        submit(log, "q-1")
        complete(log, "q-1")
        lines = journal.export_jsonl().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["event"] for line in lines] == [
            "submit", "error",
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
        log = LifecycleLog()
        journal = QueryJournal(log=log)
        complete(log, "q-1", reasons=("error",))
        record = journal.records()[-1]
        assert record["event"] == "capture"
        assert record["reasons"] == ["error"]
        assert "profile" not in record
        assert journal.captures() == [record]

    def test_max_captures_drops_with_breadcrumb(self):
        log = LifecycleLog()
        journal = QueryJournal(policy=CapturePolicy(max_captures=1), log=log)
        for query_id in ("q-1", "q-2"):
            complete(log, query_id, reasons=("error",),
                     kept=journal.keep_capture())
        assert journal.dropped_captures == 1
        events = [r["event"] for r in journal.records()]
        assert events == ["error", "capture", "error", "capture_dropped"]
        assert journal.records()[-1]["reasons"] == ["error"]

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
        # The first completion lands in the slowest-N ring: captured.
        profile = server.query_profile(record.query_id)
        journal = obs.journal
        capture = journal.captures()[-1]
        assert capture["reasons"] == ["slowest_8"]
        assert capture["profile"]["name"] == "query"
        assert capture["profile"]["children"]
        assert capture["flamegraph_svg"].startswith("<svg")
        assert capture["billed_nanodollars"] == profile.billed_nanodollars
        # The capture is a journal record too: it exports with the rest.
        assert '"event": "capture"' in journal.export_jsonl()

    def test_a_capture_past_the_cap_stores_no_evidence(self, turbo_env):
        from repro.core import QueryServer, ServiceLevel
        from repro.obs import Instrumentation
        from repro.obs.lifecycle import COMPLETE
        from repro.turbo import Coordinator

        sim, store, catalog, config, _, _ = turbo_env
        obs = Instrumentation.create(
            clock=lambda: sim.now, capture=CapturePolicy(max_captures=1)
        )
        coordinator = Coordinator(sim, config, catalog, store, "tpch", obs=obs)
        server = QueryServer(sim, coordinator, config)
        for _ in range(3):  # each lands in the slowest-8 ring
            server.submit("SELECT count(*) FROM orders", ServiceLevel.IMMEDIATE)
            sim.run_until(sim.now + 120)
        # The cap is counted as completions are recorded: only the kept
        # capture's entry holds an operator profile and a bill.
        evidence = [entry[-1] for entry in obs.log if entry[2] == COMPLETE]
        assert [item is not None for item in evidence] == [True, False, False]
        assert obs.journal.dropped_captures == 2
        events = [r["event"] for r in obs.journal.records()]
        assert events.count("capture") == 1
        assert events.count("capture_dropped") == 2
