"""Live query activity: the ``pg_stat_activity`` of this system.

Every other observability surface (traces, profiles, statement stats,
the ledger) is post-hoc — it can explain a query only after it finishes.
The :class:`ActivityRegistry` is the live view: a registry of every
submitted query's lifecycle state machine

    queued → admitted → dispatched → executing → merging
                                  → billed | cancelled | rejected | failed

with, for in-flight queries, per-operator progress fractions and an
online projection of the final bill and completion time.

**Progress.**  Execution in this reproduction is *eager under virtual
time*: the executor runs the whole plan at dispatch time and the
simulator then advances the clock by the cost model's modelled duration.
The registry therefore knows, at execution start, the full per-operator
profile (including each scan's row-group morsel count) and the exact
virtual window ``[started_at, started_at + duration_s]``.  A snapshot at
virtual time *t* maps the elapsed window fraction onto the operators:
scans advance morsel by morsel (``floor(f × N) / N`` of their N row
groups), streaming operators advance continuously, and blocking sinks
report a phase (``accumulate`` while upstream work dominates, ``emit``
once only their own work remains).  Progress is clamped to ``[0, 1]``
and frozen at the terminal transition, so it never exceeds 1.0 and a
cancelled query keeps the fraction it died at.

**Projection.**  The estimator blends two sources in exact integer
nanodollars: the *prior* (mean bill of past calls of the same
fingerprint × level × tenant, which the recorder reads off the
statement store and hands over at submission — the store's state at
that moment) and the *execution-known* final (the recorder prices the
scanned bytes the moment execution starts).  The registry reads no other
sink and calls nothing back.  The
blend weight moves linearly from the
prior to the known final as the window elapses, so the projection's
terminal value equals the billed price exactly; the resource split uses
the shared largest-remainder splitter so the four axes always sum to the
projected total.  Every billed query appends an estimated-vs-actual
:class:`ProjectionRecord`, making estimator quality itself measurable
(the C5 bench gates its MAPE).

**Guards.**  :class:`ProjectionGuard` turns projections into action: a
query whose projected spend exceeds its tenant's remaining soft budget,
or whose service-level deadline has passed while it is still pending,
trips a rule.  Tripping always emits an alert-engine event and an
audit-log entry (mirroring the autoscaler's decision log); the optional
``downgrade``/``cancel`` actions are opt-in per rule.  Cancellations go
through the server's normal cancel path, so the ledger voids the charges
and the reconciler still balances.

**Entries are folded when read.**  Nothing writes the registry.  Each
transition the recorders append to the
:class:`~repro.obs.lifecycle.LifecycleLog` says what it does to the
query's entry, and :class:`~repro.obs.lifecycle.Replay` applies it:
:class:`~repro.obs.lifecycle.ActivityEntry` objects are built when
something reads them.  :meth:`ActivityRegistry.entry` replays one
query's entries, and the snapshot, the gauges' collector, the
projection report and the guard's ticks share one replay that keeps an
entry per query and advances over new log entries only.  A held or
rejected submission is two entries of the log and nothing else until
something reads the registry.

Everything here is passive — no simulator events are scheduled — and
derived from virtual quantities only, so snapshots and exports are
byte-identical across runs and invariant to ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.obs.lifecycle import (
    LIFECYCLE_STATES,
    ActivityEntry,
    LifecycleLog,
    ProjectionRecord,
    Replay,
)
from repro.obs.profiler import AXES, NANOS_PER_DOLLAR, _distribute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spend import SpendAccountant


def _split_axes(total: int, weights: dict[str, int] | None) -> dict[str, int]:
    """Split ``total`` nanodollars over the resource axes in proportion to
    ``weights`` (largest-remainder, exact).  With no usable weights the
    whole amount parks in ``fixed`` — mirroring the cost model's rule for
    queries whose resource decomposition is unknown."""
    if total < 0:
        total = 0
    if weights:
        pools = _distribute(
            total, [float(weights.get(axis, 0)) for axis in AXES]
        )
        if sum(pools) == total:
            return dict(zip(AXES, pools))
    return {axis: (total if axis == "fixed" else 0) for axis in AXES}


class ActivityRegistry:
    """Live registry of every submitted query's lifecycle + projection.

    The query server's transitions drive the state machine (submission,
    queueing, dispatch, billing, cancellation) and the coordinator's
    open the execution window the moment a venue starts running the
    plan; the registry replays them from the log.  Nothing here
    schedules simulator events or perturbs execution.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        metrics: "MetricsRegistry | None" = None,
        log: LifecycleLog | None = None,
    ) -> None:
        """``metrics``, when given, gets the live-activity gauges; ``log``
        is the lifecycle log to read (an observed bundle shares one with
        its tracer and journal), a private one by default."""
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._log = log if log is not None else LifecycleLog()
        #: The readers' shared replay and how far into the log it has got.
        self._replay = Replay()
        self._folded = 0
        self._projected_series: set[str] = set()
        if metrics is not None:
            self._register_gauges(metrics)

    # -- wiring ---------------------------------------------------------------

    def _register_gauges(self, registry: "MetricsRegistry") -> None:
        """Register the live-activity gauges (collector-refreshed, so the
        scrape loop sees current state; label sets ride behind the
        registry's cardinality guard)."""
        from repro.obs.metrics import (
            ACTIVITY_PROJECTED_METRIC,
            ACTIVITY_QUERIES_METRIC,
        )

        gauge_states = registry.gauge(
            ACTIVITY_QUERIES_METRIC,
            "Queries in the live activity registry, by lifecycle state",
        )
        gauge_projected = registry.gauge(
            ACTIVITY_PROJECTED_METRIC,
            "Projected final bill of in-flight queries, by tenant ($)",
        )

        def collect() -> None:
            now = self._clock()
            counts = {state: 0 for state in LIFECYCLE_STATES}
            projected: dict[str, int] = {}
            for entry in self.entries():
                counts[self._display_state(entry, now)] += 1
                if entry.terminal:
                    continue
                projection = self.projected_nanodollars(entry, now)
                if projection is not None:
                    projected[entry.tenant] = (
                        projected.get(entry.tenant, 0) + projection
                    )
            for state, count in counts.items():
                gauge_states.set(count, state=state)
            for tenant, nanos in sorted(projected.items()):
                gauge_projected.set(nanos / NANOS_PER_DOLLAR, tenant=tenant)
            for tenant in self._projected_series - set(projected):
                gauge_projected.set(0.0, tenant=tenant)
            self._projected_series = set(projected)

        registry.add_collector(collect)

    # -- reads ------------------------------------------------------------------

    def _advance(self) -> dict[str, ActivityEntry]:
        """Replay the entries appended since the last read into the shared
        entries, and return them."""
        end = self._log.end
        for entry in self._log.since(self._folded):
            self._replay.apply(entry)
        self._folded = end
        return self._replay.entries

    def entry(self, query_id: str) -> ActivityEntry | None:
        """The query's entry as it stands now, replayed from its own log
        entries alone (a fresh object on every call)."""
        replay = Replay()
        for entry in self._log.of(query_id):
            replay.apply(entry)
        return replay.entries.get(query_id)

    def entries(self) -> list[ActivityEntry]:
        """All entries in submission order (deterministic)."""
        return list(self._advance().values())

    def live_entries(self) -> list[ActivityEntry]:
        return [e for e in self._advance().values() if not e.terminal]

    def _window_fraction(self, entry: ActivityEntry, now: float) -> float:
        """Elapsed fraction of the execution window, clamped to [0, 1]
        and frozen at the terminal timestamp."""
        if entry.exec_started_at is None:
            return 0.0
        end = now
        if entry.terminal_at is not None:
            end = min(end, entry.terminal_at)
        duration = entry.exec_duration_s or 0.0
        if duration <= 0.0:
            return 1.0
        fraction = (end - entry.exec_started_at) / duration
        return min(1.0, max(0.0, fraction))

    def _display_state(self, entry: ActivityEntry, now: float) -> str:
        """The lifecycle state a snapshot reports — ``merging`` is the CF
        window's tail, derived from the fraction rather than stored."""
        if (
            entry.state == "executing"
            and entry.merge_at is not None
            and self._window_fraction(entry, now) >= entry.merge_at
        ):
            return "merging"
        return entry.state

    def _operator_rows(self, entry: ActivityEntry, fraction: float) -> list[dict]:
        rows: list[dict] = []
        for name, depth, morsels, blocking, emit_at in entry.operators:
            row: dict = {"operator": name, "depth": depth}
            if morsels > 0:
                done = (
                    morsels
                    if fraction >= 1.0
                    else min(morsels, int(fraction * morsels))
                )
                row["morsels_done"] = done
                row["morsels_total"] = morsels
                row["progress"] = round(done / morsels, 9)
            elif blocking:
                row["progress"] = round(fraction, 9)
                if fraction >= 1.0:
                    row["phase"] = "done"
                elif fraction < emit_at:
                    row["phase"] = "accumulate"
                else:
                    row["phase"] = "emit"
            else:
                row["progress"] = round(fraction, 9)
            rows.append(row)
        return rows

    def projected_nanodollars(
        self, entry: ActivityEntry, now: float
    ) -> int | None:
        """The current point estimate of the final bill, in nanodollars.

        Terminal billed → the actual bill (exactly).  Executing → the
        prior blended linearly into the exec-start-known final as the
        window elapses.  Pending → the prior alone (None if this
        statement has never been seen)."""
        if entry.actual_nanodollars is not None:
            return entry.actual_nanodollars
        fraction = self._window_fraction(entry, now)
        prior = entry.prior.nanodollars if entry.prior is not None else None
        final = entry.final_nanodollars
        if final is not None:
            if prior is None:
                return final
            return prior + round((final - prior) * fraction)
        return prior

    def _projection_row(self, entry: ActivityEntry, now: float) -> dict | None:
        total = self.projected_nanodollars(entry, now)
        if total is None:
            return None
        if entry.actual_nanodollars is not None:
            weights, source = entry.actual_axes, "billed"
        elif entry.final_nanodollars is not None:
            weights = entry.final_axes
            source = "blended" if entry.prior is not None else "execution"
        else:
            weights, source = entry.prior.axes, "prior"
        row: dict = {
            "nanodollars": total,
            "dollars": round(total / NANOS_PER_DOLLAR, 12),
            "by_resource": _split_axes(total, weights),
            "source": source,
        }
        remaining = self._remaining_s(entry, now)
        if remaining is not None:
            row["remaining_s"] = round(remaining, 9)
        return row

    def _remaining_s(self, entry: ActivityEntry, now: float) -> float | None:
        if entry.terminal:
            return 0.0
        if entry.exec_started_at is not None and entry.exec_duration_s is not None:
            return max(
                0.0, entry.exec_started_at + entry.exec_duration_s - now
            )
        # Pending: the prior's mean execution time is the only basis (the
        # remaining queue wait is the scheduler's call, not the query's).
        return entry.prior.time_s if entry.prior is not None else None

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready live view: one row per query in submission order,
        plus lifecycle-state counts.  Deterministic under the sim clock
        and invariant to the worker count."""
        now = self._clock()
        queries: list[dict] = []
        counts = {state: 0 for state in LIFECYCLE_STATES}
        for entry in self._advance().values():
            state = self._display_state(entry, now)
            counts[state] += 1
            fraction = self._window_fraction(entry, now)
            row: dict = {
                "query_id": entry.query_id,
                "state": state,
                "tenant": entry.tenant,
                "level": entry.level,
                "venue": entry.venue,
                "submitted_at": round(entry.submitted_at, 9),
                "progress": round(fraction, 9),
            }
            if entry.requested_level and entry.requested_level != entry.level:
                row["requested_level"] = entry.requested_level
            if entry.deadline_s is not None:
                row["deadline_s"] = entry.deadline_s
            if entry.admission != "admit":
                row["admission"] = entry.admission
            if not entry.terminal:
                row["pending_s"] = round(
                    (entry.exec_started_at or now) - entry.submitted_at, 9
                )
            if entry.operators and not entry.terminal:
                row["operators"] = self._operator_rows(entry, fraction)
            projection = self._projection_row(entry, now)
            if projection is not None:
                row["projection"] = projection
            if entry.actual_nanodollars is not None:
                row["actual_nanodollars"] = entry.actual_nanodollars
                if entry.estimate_nanodollars is not None:
                    row["estimated_nanodollars"] = entry.estimate_nanodollars
            if entry.detail:
                row["detail"] = entry.detail
            queries.append(row)
        return {
            "generated_at": round(now, 9),
            "states": {s: c for s, c in counts.items() if c},
            "queries": queries,
        }

    def export_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    # -- estimator accuracy ---------------------------------------------------

    def projection_records(self) -> list[ProjectionRecord]:
        self._advance()
        return list(self._replay.records)

    def projection_report(self) -> dict:
        """Estimator quality over every billed query: mean/max absolute
        percentage error plus the per-source split.  ``mape`` is what the
        C5 perf gate holds under its committed threshold."""
        records = self.projection_records()
        by_source: dict[str, int] = {}
        for record in records:
            by_source[record.source] = by_source.get(record.source, 0) + 1
        apes = [record.ape for record in records]
        return {
            "queries": len(records),
            "mape": round(sum(apes) / len(apes), 9) if apes else 0.0,
            "max_ape": round(max(apes), 9) if apes else 0.0,
            "by_source": dict(sorted(by_source.items())),
            "records": [record.to_dict() for record in records],
        }

    def export_projection_json(self) -> str:
        return (
            json.dumps(self.projection_report(), sort_keys=True, indent=2)
            + "\n"
        )


# -- projection-driven guards -------------------------------------------------


#: Guard actions, in increasing severity.  ``alert`` only records and
#: alerts; ``downgrade`` demotes a *held* relaxed query to best-effort;
#: ``cancel`` cancels through the server (the ledger voids the charges).
GUARD_ACTIONS = ("alert", "downgrade", "cancel")


@dataclass(frozen=True)
class GuardPolicy:
    """Knobs of the projection guard.

    A rule is active when its action is set; ``alert`` is the safe
    default (observe and page, change nothing).  The mutating actions
    are deliberately opt-in: ``downgrade`` applies only to queries still
    held in a server queue (a running query cannot change its rate), and
    falls back to alert-only otherwise; ``cancel`` applies anywhere
    pre-terminal.
    """

    #: Action when a query's projected bill exceeds its tenant's
    #: remaining soft budget (None disables the rule).
    budget_action: str | None = "alert"
    #: Action when a query's service-level deadline has passed while it
    #: is still pending (None disables the rule).
    deadline_action: str | None = "alert"

    def __post_init__(self) -> None:
        for action in (self.budget_action, self.deadline_action):
            if action is not None and action not in GUARD_ACTIONS:
                raise ValueError(
                    f"unknown guard action {action!r}; expected {GUARD_ACTIONS}"
                )


@dataclass(frozen=True)
class GuardDecision:
    """One audit-log entry — the guard's analogue of the autoscaler's
    :class:`~repro.turbo.vm_cluster.ScalingDecision`."""

    time: float
    query_id: str
    tenant: str
    level: str | None
    rule: str  # budget | deadline
    action: str  # alert | downgrade | cancel
    applied: bool
    reason: str
    projected_nanodollars: int | None = None
    limit_nanodollars: int | None = None
    deadline_s: float | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "time": round(self.time, 9),
            "query_id": self.query_id,
            "tenant": self.tenant,
            "level": self.level,
            "rule": self.rule,
            "action": self.action,
            "applied": self.applied,
            "reason": self.reason,
        }
        if self.projected_nanodollars is not None:
            payload["projected_nanodollars"] = self.projected_nanodollars
        if self.limit_nanodollars is not None:
            payload["limit_nanodollars"] = self.limit_nanodollars
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        return payload


class ProjectionGuard:
    """Evaluates projections against budgets and deadlines on the
    scheduler tick; decisions are audit-logged and alert-emitting, and
    the opt-in actions route through the server's own downgrade/cancel
    paths (so billing invariants hold by construction)."""

    def __init__(
        self,
        policy: GuardPolicy,
        registry: ActivityRegistry,
        spend: "SpendAccountant",
        *,
        canceller: Callable[[str], bool] | None = None,
        downgrader: Callable[[str, str], bool] | None = None,
        alert_sink: Callable[[object], None] | None = None,
        on_decision: Callable[[GuardDecision], None] | None = None,
    ) -> None:
        self.policy = policy
        self._registry = registry
        self._spend = spend
        self._canceller = canceller
        self._downgrader = downgrader
        #: Where guard alerts go (an ``AlertEvent`` consumer).
        self._alert_sink = alert_sink
        self._on_decision = on_decision
        self.audit_log: list[GuardDecision] = []
        self._fired: set[tuple[str, str]] = set()

    def evaluate(self, now: float) -> list[GuardDecision]:
        """One guard pass over the live entries; at most one decision per
        (query, rule) for the query's lifetime."""
        decisions: list[GuardDecision] = []
        budgets = self._spend.budgets()
        for entry in self._registry.live_entries():
            if self.policy.budget_action is not None and entry.tenant in budgets:
                decision = self._check_budget(
                    entry, now, budgets[entry.tenant]
                )
                if decision is not None:
                    decisions.append(decision)
            if self.policy.deadline_action is not None:
                decision = self._check_deadline(entry, now)
                if decision is not None:
                    decisions.append(decision)
        return decisions

    def _check_budget(
        self, entry: ActivityEntry, now: float, budget_dollars: float
    ) -> GuardDecision | None:
        if (entry.query_id, "budget") in self._fired:
            return None
        projected = self._registry.projected_nanodollars(entry, now)
        if projected is None:
            return None
        remaining = (
            round(budget_dollars * NANOS_PER_DOLLAR)
            - self._spend.tenant_nanodollars(entry.tenant)
        )
        if projected <= remaining:
            return None
        reason = (
            f"projected {projected} nanodollars exceeds tenant "
            f"{entry.tenant!r} remaining budget {remaining}"
        )
        return self._decide(
            entry,
            now,
            rule="budget",
            action=self.policy.budget_action or "alert",
            reason=reason,
            projected_nanodollars=projected,
            limit_nanodollars=remaining,
        )

    def _check_deadline(
        self, entry: ActivityEntry, now: float
    ) -> GuardDecision | None:
        if (entry.query_id, "deadline") in self._fired:
            return None
        if entry.deadline_s is None or entry.exec_started_at is not None:
            # Deadlines bound pending time; once executing the SLO
            # tracker owns the verdict.
            return None
        overdue = now - entry.submitted_at - entry.deadline_s
        if overdue <= 0:
            return None
        reason = (
            f"still pending {round(overdue, 9)}s past its "
            f"{entry.deadline_s}s {entry.level} deadline"
        )
        return self._decide(
            entry,
            now,
            rule="deadline",
            action=self.policy.deadline_action or "alert",
            reason=reason,
            deadline_s=entry.deadline_s,
        )

    def _decide(
        self,
        entry: ActivityEntry,
        now: float,
        *,
        rule: str,
        action: str,
        reason: str,
        projected_nanodollars: int | None = None,
        limit_nanodollars: int | None = None,
        deadline_s: float | None = None,
    ) -> GuardDecision:
        applied = True
        if action == "downgrade":
            held_relaxed = entry.state == "queued" and entry.level == "relaxed"
            if held_relaxed and self._downgrader is not None:
                applied = bool(
                    self._downgrader(entry.query_id, f"guard_{rule}")
                )
            else:
                # A running (or non-relaxed) query cannot change rate —
                # record the trip, act on nothing.
                action, applied = "alert", True
        elif action == "cancel":
            applied = (
                bool(self._canceller(entry.query_id))
                if self._canceller is not None
                else False
            )
        # Fold what the action wrote, so the decision records the level
        # the query now holds and the pass's next rule reads the entries
        # as they now stand.
        self._registry._advance()
        decision = GuardDecision(
            time=now,
            query_id=entry.query_id,
            tenant=entry.tenant,
            level=entry.level,
            rule=rule,
            action=action,
            applied=applied,
            reason=reason,
            projected_nanodollars=projected_nanodollars,
            limit_nanodollars=limit_nanodollars,
            deadline_s=deadline_s,
        )
        self._fired.add((entry.query_id, rule))
        self.audit_log.append(decision)
        if self._alert_sink is not None:
            from repro.obs.alerts import AlertEvent

            value = (
                projected_nanodollars / NANOS_PER_DOLLAR
                if projected_nanodollars is not None
                else 0.0
            )
            self._alert_sink(
                AlertEvent(
                    time=now,
                    rule=f"projection_guard_{rule}",
                    state="firing",
                    value=value,
                    detail=f"{entry.query_id}: {reason} (action={action})",
                )
            )
        if self._on_decision is not None:
            self._on_decision(decision)
        return decision

    def audit(self) -> list[dict]:
        """The decision log as JSON-ready dicts, in decision order."""
        return [decision.to_dict() for decision in self.audit_log]

    def export_jsonl(self) -> str:
        lines = [
            json.dumps(payload, sort_keys=True) for payload in self.audit()
        ]
        return "\n".join(lines) + ("\n" if lines else "")
