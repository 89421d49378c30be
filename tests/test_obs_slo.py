"""Unit tests for the SLO tracker (repro.obs.slo)."""

import math

import pytest

from repro.obs.slo import (
    VIOLATION_EPSILON_S,
    SloObjective,
    SloTracker,
    default_objectives,
)


def _record(
    tracker: SloTracker,
    *,
    level: str = "relaxed",
    finished_at: float = 10.0,
    deadline_s: float | None = 30.0,
    actual_s: float = 0.0,
    query_id: str = "q1",
    billed: float = 0.0,
):
    return tracker.record(
        query_id=query_id,
        level=level,
        submitted_at=finished_at - actual_s,
        finished_at=finished_at,
        deadline_s=deadline_s,
        actual_s=actual_s,
        billed=billed,
    )


class TestObjective:
    def test_budget_fraction_is_complement_of_target(self):
        assert SloObjective("relaxed", target=0.99).budget_fraction == pytest.approx(
            0.01
        )

    def test_rejects_bad_target_and_window(self):
        with pytest.raises(ValueError):
            SloObjective("x", target=0.0)
        with pytest.raises(ValueError):
            SloObjective("x", target=1.5)
        with pytest.raises(ValueError):
            SloObjective("x", budget_window_s=0.0)

    def test_default_objectives_cover_all_levels(self):
        assert [o.level for o in default_objectives()] == [
            "immediate", "relaxed", "best_effort",
        ]


class TestRecord:
    def test_met_deadline_has_positive_slack(self):
        record = _record(SloTracker(), deadline_s=30.0, actual_s=10.0)
        assert record.slack_s == pytest.approx(20.0)
        assert not record.violated

    def test_missed_deadline_has_negative_slack(self):
        record = _record(SloTracker(), deadline_s=30.0, actual_s=45.0)
        assert record.slack_s == pytest.approx(-15.0)
        assert record.violated

    def test_epsilon_guard_absorbs_float_noise(self):
        # Exactly on the deadline, or within the guard band, is a pass.
        on_time = _record(
            SloTracker(), deadline_s=30.0, actual_s=30.0 + VIOLATION_EPSILON_S / 2
        )
        assert not on_time.violated
        late = _record(
            SloTracker(), deadline_s=30.0, actual_s=30.0 + 3 * VIOLATION_EPSILON_S
        )
        assert late.violated

    def test_no_deadline_never_violates(self):
        record = _record(SloTracker(), deadline_s=None, actual_s=9999.0)
        assert record.slack_s is None
        assert not record.violated

    def test_unknown_level_is_auto_registered(self):
        tracker = SloTracker(objectives=[])
        _record(tracker, level="gold")
        assert tracker.levels() == ["gold"]
        assert tracker.compliance("gold") == 1.0


class TestCompliance:
    def test_lifetime_compliance_counts_only_deadlined_queries(self):
        tracker = SloTracker()
        _record(tracker, query_id="a", actual_s=0.0)
        _record(tracker, query_id="b", actual_s=99.0)  # violation
        _record(tracker, query_id="c", deadline_s=None, actual_s=99.0)
        assert tracker.compliance("relaxed") == pytest.approx(0.5)

    def test_compliance_none_without_deadline_traffic(self):
        tracker = SloTracker()
        _record(tracker, level="best_effort", deadline_s=None)
        assert tracker.compliance("best_effort") is None
        assert tracker.compliance("missing") is None

    def test_rolling_compliance_uses_recent_window_only(self):
        tracker = SloTracker(rolling_window=2)
        _record(tracker, query_id="old", actual_s=99.0)  # violation ages out
        _record(tracker, query_id="n1", actual_s=0.0)
        _record(tracker, query_id="n2", actual_s=0.0)
        assert tracker.compliance("relaxed") == pytest.approx(2 / 3)
        assert tracker.rolling_compliance("relaxed") == 1.0

    def test_records_are_globally_time_ordered(self):
        tracker = SloTracker()
        _record(tracker, level="relaxed", finished_at=20.0, query_id="b")
        _record(tracker, level="immediate", finished_at=10.0, query_id="a",
                deadline_s=0.0)
        assert [r.query_id for r in tracker.records()] == ["a", "b"]


class TestErrorBudget:
    def _tracker(self) -> SloTracker:
        # 90% target, 100 s windows → budget = 10% of queries per window.
        return SloTracker(
            objectives=[
                SloObjective("relaxed", target=0.9, budget_window_s=100.0)
            ]
        )

    def test_budget_exhaustion_at_exact_rate(self):
        tracker = self._tracker()
        for index in range(9):
            _record(tracker, finished_at=10.0 + index, query_id=f"ok{index}")
        budget = tracker.budget("relaxed")
        assert budget["consumed_fraction"] == 0.0
        assert not budget["exhausted"]
        _record(tracker, finished_at=50.0, actual_s=99.0, query_id="bad")
        budget = tracker.budget("relaxed")
        # 1 violation in 10 → 10% violation rate = the whole 10% budget.
        assert budget["consumed_fraction"] == pytest.approx(1.0)
        assert budget["exhausted"]

    def test_budget_resets_at_window_boundary(self):
        tracker = self._tracker()
        _record(tracker, finished_at=50.0, actual_s=99.0, query_id="bad")
        assert tracker.budget("relaxed")["exhausted"]
        # First record of the next fixed window rolls and resets.
        _record(tracker, finished_at=150.0, query_id="ok")
        budget = tracker.budget("relaxed")
        assert budget["window_index"] == 1
        assert budget["window_start_s"] == 100.0
        assert budget["consumed_fraction"] == 0.0
        assert not budget["exhausted"]
        history = tracker.budget_history("relaxed")
        assert len(history) == 1
        assert history[0]["exhausted"]

    def test_skipped_empty_windows_are_not_kept(self):
        tracker = self._tracker()
        _record(tracker, finished_at=50.0, query_id="a")
        _record(tracker, finished_at=950.0, query_id="b")
        assert tracker.budget("relaxed")["window_index"] == 9
        assert [w["window_index"] for w in tracker.budget_history("relaxed")] == [0]

    def test_perfect_target_burns_infinitely_on_any_violation(self):
        tracker = SloTracker(objectives=[SloObjective("relaxed", target=1.0)])
        _record(tracker, finished_at=5.0, actual_s=99.0)
        assert tracker.budget("relaxed")["consumed_fraction"] == math.inf
        assert tracker.burn_rate("relaxed", 60.0, 10.0) == math.inf


class TestBurnRate:
    def _tracker(self) -> SloTracker:
        return SloTracker(objectives=[SloObjective("relaxed", target=0.99)])

    def test_burn_rate_is_violation_rate_over_budget(self):
        tracker = self._tracker()
        for index in range(8):
            _record(tracker, finished_at=100.0 + index, query_id=f"ok{index}")
        _record(tracker, finished_at=110.0, actual_s=99.0, query_id="v1")
        _record(tracker, finished_at=111.0, actual_s=99.0, query_id="v2")
        # 2/10 violations against a 1% budget → burning 20× sustainable.
        assert tracker.burn_rate("relaxed", 60.0, 120.0) == pytest.approx(20.0)

    def test_window_is_half_open_left(self):
        tracker = self._tracker()
        _record(tracker, finished_at=60.0, actual_s=99.0, query_id="edge")
        # finished_at == now - window_s falls OUTSIDE (start, end].
        assert tracker.burn_rate("relaxed", 60.0, 120.0) == 0.0
        # One tick later it is inside.
        assert tracker.burn_rate("relaxed", 60.001, 120.0) > 0.0

    def test_window_includes_right_edge(self):
        tracker = self._tracker()
        _record(tracker, finished_at=120.0, actual_s=99.0, query_id="edge")
        assert tracker.burn_rate("relaxed", 60.0, 120.0) == pytest.approx(100.0)

    def test_empty_window_burns_nothing(self):
        tracker = self._tracker()
        assert tracker.burn_rate("relaxed", 60.0, 120.0) == 0.0
        assert tracker.burn_rate("missing", 60.0, 120.0) == 0.0


class TestExport:
    def test_snapshot_shape_and_billing(self):
        tracker = SloTracker()
        _record(tracker, billed=1.25, query_id="a")
        _record(tracker, billed=0.75, actual_s=99.0, query_id="b")
        level = tracker.snapshot()["levels"]["relaxed"]
        assert level["queries"] == 2
        assert level["violations"] == 1
        assert level["billed"] == pytest.approx(2.0)
        assert level["objective"]["target"] == 0.99

    def test_export_json_is_deterministic(self):
        def build() -> str:
            tracker = SloTracker()
            _record(tracker, query_id="a")
            _record(tracker, query_id="b", actual_s=50.0)
            return tracker.export_json()

        assert build() == build()
