"""End-to-end tests for the SLO engine over the real stack.

Covers the observability invariant (observe=True changes no result and
no price), the deliberately-triggered burn-rate alert under overload,
and the autoscaler audit log's 1:1 pact with the watermark counter.
"""

import dataclasses

import pytest

from repro.baselines import run_workload
from repro.baselines.runner import Submission
from repro.core import ServiceLevel
from repro.obs.alerts import BurnRateRule
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import TurboConfig
from repro.turbo.config import CfConfig, VmConfig
from repro.workloads import TpchGenerator, load_dataset

HEAVY = "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"


@pytest.fixture(scope="module")
def dataset():
    return TpchGenerator(scale=0.05).tables()


def _stress_config() -> TurboConfig:
    """An overload regime: a 2-worker cap, inflated scans, and a short
    grace period, so relaxed queries blow their pending-time deadline."""
    return dataclasses.replace(
        TurboConfig.fast(),
        vm=VmConfig(
            max_workers=2,
            scale_out_lag_s=9.0,
            evaluation_interval_s=1.0,
            scale_in_window_s=30.0,
            scale_in_cooldown_s=30.0,
        ),
        cf=CfConfig(startup_s=0.1),
        grace_period_s=10.0,
        data_inflation=5000.0,
    )


def _stress_submissions() -> list[Submission]:
    return [
        Submission(1.0 + index * 0.5, HEAVY, ServiceLevel.RELAXED)
        for index in range(30)
    ]


def _stress_rules() -> list[BurnRateRule]:
    # Windows shrunk to the test's time scale; same dual-window shape.
    return [
        BurnRateRule(
            "relaxed_burn_rate", "relaxed", threshold=6.0,
            fast_window_s=30.0, slow_window_s=60.0,
        )
    ]


def _run_stress(dataset, observe: bool):
    # Each run loads its own store: ObjectStore.metrics is cumulative,
    # so sharing one store would bleed absolute counter values (and thus
    # time-series exports) between runs.
    store = ObjectStore()
    catalog = Catalog()
    load_dataset(store, catalog, "tpch", dataset)
    return run_workload(
        _stress_submissions(), store, catalog, "tpch", _stress_config(),
        observe=observe, scrape_interval_s=5.0,
        alert_rules=_stress_rules() if observe else None,
    )


class TestBurnRateUnderOverload:
    def test_overload_violates_relaxed_deadlines(self, dataset):
        result = _run_stress(dataset, observe=True)
        level = result.obs.slo.snapshot()["levels"]["relaxed"]
        assert level["queries"] == 30
        assert level["violations"] > 5
        assert level["compliance"] < 0.9
        # The 99% budget is torched by a double-digit violation rate.
        assert level["budget"]["exhausted"]

    def test_burn_rate_alert_fires(self, dataset):
        result = _run_stress(dataset, observe=True)
        fired = [e for e in result.obs.alerts.events if e.state == "firing"]
        assert [e.rule for e in fired] == ["relaxed_burn_rate"]
        assert fired[0].value >= 6.0
        # It fired on a scrape tick — alert timing is cadence-quantized.
        assert fired[0].time in result.obs.timeseries.scrape_times

    def test_slack_histogram_recorded_misses(self, dataset):
        result = _run_stress(dataset, observe=True)
        slack = result.obs.metrics.get("pixels_query_deadline_slack_seconds")
        assert slack.count(level="relaxed") == 30
        rendered = result.obs.metrics.render()
        assert "pixels_query_deadline_slack_seconds_bucket" in rendered


class TestObserveInvariance:
    def test_observe_changes_no_result_and_no_price(self, dataset):
        dark = _run_stress(dataset, observe=False)
        lit = _run_stress(dataset, observe=True)

        def fingerprint(result):
            return [
                (
                    q.status.value,
                    q.submitted_at,
                    q.dispatched_at,
                    q.pending_time_s,
                    q.execution.finished_at if q.execution else None,
                    q.price,
                    q.bill,
                    q.execution.bytes_scanned if q.execution else None,
                )
                for q in result.queries
            ]

        assert fingerprint(dark) == fingerprint(lit)
        assert dark.billed() == lit.billed()
        # The unobserved run truly ran dark.
        assert not dark.obs.enabled

    def test_observed_run_is_deterministic(self, dataset):
        first = _run_stress(dataset, observe=True)
        second = _run_stress(dataset, observe=True)
        for kind in ("timeseries", "alerts", "slo"):
            assert first.obs.export(kind) == second.obs.export(kind)
        assert (
            first.coordinator.vm_cluster.export_audit_jsonl()
            == second.coordinator.vm_cluster.export_audit_jsonl()
        )


class TestAutoscalerAudit:
    def test_audit_log_is_one_to_one_with_watermark_counter(self, dataset):
        result = _run_stress(dataset, observe=True)
        audit = result.coordinator.vm_cluster.audit_log
        crossings = result.obs.metrics.get(
            "pixels_vm_watermark_crossings_total"
        )
        outs = [d for d in audit if d.action == "scale_out"]
        ins = [d for d in audit if d.action == "scale_in"]
        assert len(audit) > 0
        assert len(outs) == crossings.value(watermark="high")
        assert len(ins) == crossings.value(watermark="low")
        # The cluster's event counts are read off the same log.
        cluster = result.coordinator.vm_cluster
        assert cluster.scale_out_events == len(outs) > 0
        assert cluster.scale_in_events == len(ins)
        with pytest.raises(AttributeError):
            cluster.scale_out_events = 0

    def test_audit_entries_explain_the_decision(self, dataset):
        result = _run_stress(dataset, observe=True)
        for decision in result.coordinator.vm_cluster.audit_log:
            if decision.action == "scale_out":
                assert decision.watermark == "high"
                assert decision.trigger_value >= decision.threshold
                assert decision.delta > 0
                assert (
                    decision.workers_target
                    == decision.workers_before
                    + decision.pending_before
                    + decision.delta
                )
            else:
                assert decision.watermark == "low"
                assert decision.trigger_value <= decision.threshold
                assert decision.delta < 0
                assert (
                    decision.workers_target
                    == decision.workers_before + decision.delta
                )

    def test_audit_recorded_even_without_observe(self, dataset):
        # The audit log is plain bookkeeping, not instrumentation: it is
        # available on unobserved runs too.
        result = _run_stress(dataset, observe=False)
        assert len(result.coordinator.vm_cluster.audit_log) > 0


class TestWorkloadDashboard:
    def test_dashboard_data_requires_observe(self, dataset):
        result = _run_stress(dataset, observe=False)
        with pytest.raises(ValueError):
            result.dashboard_data("nope")

    def test_dashboard_reflects_the_incident(self, dataset):
        from repro.obs.dashboard import render_dashboard_html

        result = _run_stress(dataset, observe=True)
        html = render_dashboard_html(result.dashboard_data("stress"))
        assert "relaxed_burn_rate" in html
        assert "EXHAUSTED" in html
        assert "scale_out" in html
