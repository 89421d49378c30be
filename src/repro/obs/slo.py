"""Per-service-level SLO accounting (deadline compliance).

PixelsDB's product promise is a *pending-time deadline per service
level*: immediate queries start at once, relaxed queries start before
the grace period expires, best-of-effort queries carry no deadline.
The :class:`SloTracker` turns that promise into first-class accounting:
every completed query is recorded as an :class:`SloRecord` (deadline vs
actual pending time, slack, violation flag, billed $).  Per level the
tracker stores only those records and folds them, on read, into

* lifetime and rolling compliance ratios,
* a fixed-window **error budget** against a configurable target
  (e.g. 99 % of queries meet their deadline per accounting window), and
* windowed **burn rates** — the violation rate expressed as a multiple
  of the rate that would exactly exhaust the budget — which is what the
  alert engine's fast/slow dual-window rules consume.

Everything runs on completed-query timestamps from the virtual clock,
so same-seed runs export byte-identical JSON.  The tracker never feeds
back into admission, scheduling, or billing, and an unobserved stack
never calls it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: Slack histogram buckets in seconds.  Slack = deadline − actual, so
#: negative buckets measure *by how much* a deadline was missed.
SLACK_BUCKETS = (
    -1800.0, -300.0, -60.0, -5.0, 0.0, 5.0, 60.0, 300.0, 1800.0,
)

#: Violations are strict: actual must exceed the deadline by more than
#: this guard band (absorbs float noise from simulated timestamps).
VIOLATION_EPSILON_S = 1e-9


@dataclass(frozen=True)
class SloObjective:
    """The compliance objective for one service level.

    ``target`` is the fraction of queries that must meet their deadline
    within each error-budget window; the budget is the complementary
    fraction ``1 - target``.  Levels without deadlines (best-of-effort)
    still get an objective so their traffic and billing are tracked, but
    they can never consume budget.
    """

    level: str
    target: float = 0.99
    budget_window_s: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must be in (0, 1]: {self.target}")
        if self.budget_window_s <= 0:
            raise ValueError("budget_window_s must be positive")

    @property
    def budget_fraction(self) -> float:
        """The allowed violation fraction per window."""
        return 1.0 - self.target


def default_objectives() -> list[SloObjective]:
    """The demo's published targets: 99 % for deadline-based levels."""
    return [
        SloObjective("immediate", target=0.99),
        SloObjective("relaxed", target=0.99),
        SloObjective("best_effort", target=0.99),
    ]


@dataclass(frozen=True)
class SloRecord:
    """One completed query's deadline outcome."""

    query_id: str
    level: str
    submitted_at: float
    finished_at: float
    deadline_s: float | None  # None → the level carries no deadline
    actual_s: float  # measured pending time (submission → exec start)
    slack_s: float | None  # deadline − actual; None when no deadline
    violated: bool
    billed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "level": self.level,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "deadline_s": self.deadline_s,
            "actual_s": self.actual_s,
            "slack_s": self.slack_s,
            "violated": self.violated,
            "billed": self.billed,
        }


@dataclass
class _BudgetWindow:
    """Error-budget tallies for one fixed accounting window."""

    index: int
    total: int = 0
    violations: int = 0

    def consumed_fraction(self, budget_fraction: float) -> float:
        """Budget consumed so far: 1.0 means exactly exhausted."""
        if self.total == 0:
            return 0.0
        violation_rate = self.violations / self.total
        if budget_fraction <= 0.0:
            return math.inf if self.violations else 0.0
        return violation_rate / budget_fraction

    def to_dict(self, objective: SloObjective) -> dict:
        consumed = self.consumed_fraction(objective.budget_fraction)
        return {
            "window_index": self.index,
            "window_start_s": self.index * objective.budget_window_s,
            "window_s": objective.budget_window_s,
            "total": self.total,
            "violations": self.violations,
            "budget_fraction": objective.budget_fraction,
            "consumed_fraction": consumed,
            "exhausted": consumed >= 1.0 and self.violations > 0,
        }


class _LevelState:
    """All accounting for one service level: its records, and folds over
    them computed on read."""

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.records: list[SloRecord] = []

    def fold(self) -> tuple[int, float, _BudgetWindow, list[_BudgetWindow]]:
        """One pass over the records in completion order: (violations,
        billed dollars, current budget window, closed windows oldest
        first).  ``billed`` is a running ``+=`` (``sum()`` compensates on
        Python ≥ 3.12).  A record finishing in a later window — with or
        without a deadline — closes the current one, which is kept only
        if a deadline-carrying query occupied it; only deadline-carrying
        records count in a window."""
        window_s = self.objective.budget_window_s
        violations, billed = 0, 0.0
        window, closed = _BudgetWindow(index=0), []
        for record in self.records:
            billed += record.billed
            violations += record.violated
            index = int(record.finished_at // window_s)
            if index > window.index:
                if window.total:
                    closed.append(window)
                window = _BudgetWindow(index=index)
            if record.deadline_s is not None:
                window.total += 1
                window.violations += record.violated
        return violations, billed, window, closed

    def compliance(self) -> float | None:
        """Lifetime fraction of deadline-carrying queries that met it."""
        deadlined = [r for r in self.records if r.deadline_s is not None]
        if not deadlined:
            return None
        met = sum(1 for r in deadlined if not r.violated)
        return met / len(deadlined)

    def rolling_compliance(self, window: int) -> float | None:
        """Compliance over the most recent ``window`` deadline-carrying
        queries — the operator's 'are we OK right now' number."""
        deadlined = [r for r in self.records if r.deadline_s is not None]
        if not deadlined:
            return None
        recent = deadlined[-window:]
        met = sum(1 for r in recent if not r.violated)
        return met / len(recent)

    def window_counts(self, start: float, end: float) -> tuple[int, int]:
        """(violations, total) among deadline-carrying queries finishing
        in the half-open interval ``(start, end]``."""
        violations = 0
        total = 0
        for record in self.records:
            if record.deadline_s is None:
                continue
            if start < record.finished_at <= end:
                total += 1
                if record.violated:
                    violations += 1
        return violations, total

    def burn_rate(self, window_s: float, now: float) -> float:
        """Violation rate over the trailing window, as a multiple of the
        budget-exhausting rate.  1.0 means the error budget is being
        consumed exactly as fast as it accrues; 0.0 when no deadline
        traffic fell in the window."""
        violations, total = self.window_counts(now - window_s, now)
        if total == 0:
            return 0.0
        rate = violations / total
        budget = self.objective.budget_fraction
        if budget <= 0.0:
            return math.inf if violations else 0.0
        return rate / budget


class SloTracker:
    """Deadline-compliance accounting across service levels."""

    def __init__(
        self,
        objectives: list[SloObjective] | None = None,
        rolling_window: int = 100,
    ) -> None:
        if objectives is None:
            objectives = default_objectives()
        self._levels: dict[str, _LevelState] = {
            objective.level: _LevelState(objective)
            for objective in objectives
        }
        self._rolling_window = rolling_window

    # -- recording ----------------------------------------------------------

    def record(
        self,
        query_id: str,
        level: str,
        submitted_at: float,
        finished_at: float,
        deadline_s: float | None,
        actual_s: float,
        billed: float = 0.0,
    ) -> SloRecord | None:
        """Account one completed query; returns its :class:`SloRecord`."""
        state = self._levels.get(level)
        if state is None:
            state = _LevelState(SloObjective(level))
            self._levels[level] = state
        if deadline_s is None:
            slack: float | None = None
            violated = False
        else:
            slack = deadline_s - actual_s
            violated = actual_s > deadline_s + VIOLATION_EPSILON_S
        record = SloRecord(
            query_id=query_id,
            level=level,
            submitted_at=submitted_at,
            finished_at=finished_at,
            deadline_s=deadline_s,
            actual_s=actual_s,
            slack_s=slack,
            violated=violated,
            billed=billed,
        )
        state.records.append(record)
        return record

    # -- queries ------------------------------------------------------------

    def levels(self) -> list[str]:
        return sorted(self._levels)

    def records(self, level: str | None = None) -> list[SloRecord]:
        if level is not None:
            state = self._levels.get(level)
            return list(state.records) if state else []
        out: list[SloRecord] = []
        for name in self.levels():
            out.extend(self._levels[name].records)
        out.sort(key=lambda r: (r.finished_at, r.query_id))
        return out

    def compliance(self, level: str) -> float | None:
        state = self._levels.get(level)
        return state.compliance() if state else None

    def rolling_compliance(self, level: str) -> float | None:
        state = self._levels.get(level)
        if state is None:
            return None
        return state.rolling_compliance(self._rolling_window)

    def burn_rate(self, level: str, window_s: float, now: float) -> float:
        state = self._levels.get(level)
        return state.burn_rate(window_s, now) if state else 0.0

    def budget(self, level: str) -> dict | None:
        """The current error-budget window's state for ``level``."""
        state = self._levels.get(level)
        if state is None:
            return None
        return state.fold()[2].to_dict(state.objective)

    def budget_history(self, level: str) -> list[dict]:
        """Closed (already-rolled) budget windows, oldest first."""
        state = self._levels.get(level)
        if state is None:
            return []
        return [w.to_dict(state.objective) for w in state.fold()[3]]

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-level summary: compliance, budget state, billing — the
        dashboard's 'per-level compliance table' input."""
        levels = {}
        for name in self.levels():
            state = self._levels[name]
            violations, billed, window, closed = state.fold()
            levels[name] = {
                "objective": {
                    "target": state.objective.target,
                    "budget_window_s": state.objective.budget_window_s,
                },
                "queries": len(state.records),
                "violations": violations,
                "compliance": state.compliance(),
                "rolling_compliance": state.rolling_compliance(
                    self._rolling_window
                ),
                "billed": billed,
                "budget": window.to_dict(state.objective),
                "closed_windows": [
                    w.to_dict(state.objective) for w in closed
                ],
            }
        return {"levels": levels}

    def export_json(self) -> str:
        """Every record plus the summary, as deterministic JSON."""
        document = {
            "records": [r.to_dict() for r in self.records()],
            "summary": self.snapshot(),
        }
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
