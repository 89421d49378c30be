"""Burn-rate and threshold alerting over the SLO tracker and registry.

Rules are evaluated on the scrape cadence (the :class:`ScrapeLoop`
invokes :meth:`AlertEngine.evaluate` as a listener), so alert timing is
virtual-clock-deterministic.  Two rule families:

* :class:`BurnRateRule` — the SRE dual-window construction: fire when
  the SLO error budget is burning faster than ``threshold``× the
  sustainable rate over **both** a fast window (catches cliffs quickly)
  and a slow window (filters out blips the fast window alone would page
  on).
* :class:`ThresholdRule` — a static bound on a registry instrument:
  a gauge/counter value (e.g. VM queue depth) or a histogram's mean over
  a trailing window (e.g. mean pending seconds), optionally required to
  hold for ``for_s`` before firing.

State machine per rule: ``ok → pending → firing → ok``, with **flap
suppression**: after any ok↔firing transition the state is held for
``hold_s`` simulated seconds, so an oscillating signal produces one
firing/resolved pair instead of a page storm.  Every transition is
appended to an event log with a deterministic JSONL export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.timeseries import TimeSeriesStore

_Labels = tuple[tuple[str, str], ...]


def labels_of(**labels: object) -> _Labels:
    """Build a rule's label selector: ``labels_of(level="relaxed")``."""
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


@dataclass(frozen=True)
class BurnRateRule:
    """Dual-window error-budget burn-rate rule for one service level."""

    name: str
    level: str
    threshold: float = 6.0  # burn-rate multiple that pages
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0

    def evaluate(self, context: "AlertContext") -> tuple[bool, float]:
        if context.slo is None:
            return False, 0.0
        fast = context.slo.burn_rate(self.level, self.fast_window_s, context.now)
        slow = context.slo.burn_rate(self.level, self.slow_window_s, context.now)
        # Both windows must burn hot: the fast one for responsiveness,
        # the slow one so a single bad scrape cannot page.
        breached = fast >= self.threshold and slow >= self.threshold
        return breached, fast

    def describe(self) -> str:
        return (
            f"burn_rate({self.level}) >= {self.threshold} over "
            f"{self.fast_window_s:g}s and {self.slow_window_s:g}s"
        )


@dataclass(frozen=True)
class ThresholdRule:
    """Static bound on a registry instrument value."""

    name: str
    metric: str
    threshold: float
    labels: _Labels = ()
    for_s: float = 0.0  # breach must persist this long before firing
    #: "value" reads the instrument directly (gauges, counters);
    #: "histogram_mean" computes sum/count growth over ``window_s`` from
    #: the time-series store — a windowed mean, e.g. of pending seconds.
    kind: str = "value"
    window_s: float = 600.0

    def evaluate(self, context: "AlertContext") -> tuple[bool, float]:
        value = self._value(context)
        if value is None:
            return False, 0.0
        return value > self.threshold, value

    def _value(self, context: "AlertContext") -> float | None:
        if self.kind == "histogram_mean":
            store = context.store
            if store is None:
                return None
            start = context.now - self.window_s
            count = store.delta_sum(
                f"{self.metric}_count", start, context.now, self.labels
            )
            total = store.delta_sum(
                f"{self.metric}_sum", start, context.now, self.labels
            )
            if not count or total is None:
                return None
            return total / count
        instrument = context.registry.get(self.metric)
        if instrument is None:
            return None
        return instrument.value(**dict(self.labels))

    def describe(self) -> str:
        rendered = ",".join(f"{k}={v}" for k, v in self.labels)
        label_part = f"{{{rendered}}}" if rendered else ""
        metric = self.metric + label_part
        if self.kind == "histogram_mean":
            metric = f"mean({metric}, {self.window_s:g}s)"
        suffix = f" for {self.for_s:g}s" if self.for_s else ""
        return f"{metric} > {self.threshold:g}{suffix}"


@dataclass(frozen=True)
class AlertContext:
    """Everything a rule may look at during one evaluation."""

    now: float
    registry: MetricsRegistry
    slo: SloTracker | None = None
    store: TimeSeriesStore | None = None


@dataclass(frozen=True)
class AlertEvent:
    """One state transition of one rule."""

    time: float
    rule: str
    state: str  # "firing" | "resolved"
    value: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "rule": self.rule,
            "state": self.state,
            "value": self.value,
            "detail": self.detail,
        }


@dataclass
class _RuleState:
    firing: bool = False
    breach_since: float | None = None  # for ``for_s`` accumulation
    last_transition: float = -float("inf")
    last_value: float = 0.0


@dataclass
class AlertEngine:
    """Evaluates rules on the scrape cadence and logs transitions."""

    rules: list[BurnRateRule | ThresholdRule]
    registry: MetricsRegistry
    slo: SloTracker | None = None
    store: TimeSeriesStore | None = None
    #: Flap suppression: minimum simulated seconds between state
    #: transitions of one rule.
    hold_s: float = 120.0
    events: list[AlertEvent] = field(default_factory=list)
    _states: dict[str, _RuleState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate alert rule names: {names}")
        for rule in self.rules:
            self._states[rule.name] = _RuleState()

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One evaluation pass (a :class:`ScrapeLoop` listener)."""
        context = AlertContext(
            now=now, registry=self.registry, slo=self.slo, store=self.store
        )
        for rule in self.rules:
            state = self._states[rule.name]
            breached, value = rule.evaluate(context)
            state.last_value = value
            if breached:
                if state.breach_since is None:
                    state.breach_since = now
                ripe = now - state.breach_since >= self._for_s(rule)
                if not state.firing and ripe:
                    self._transition(rule, state, now, True, value)
            else:
                state.breach_since = None
                if state.firing:
                    self._transition(rule, state, now, False, value)

    @staticmethod
    def _for_s(rule: BurnRateRule | ThresholdRule) -> float:
        return getattr(rule, "for_s", 0.0)

    def _transition(
        self,
        rule: BurnRateRule | ThresholdRule,
        state: _RuleState,
        now: float,
        firing: bool,
        value: float,
    ) -> None:
        # Flap suppression: a rule that changed state recently holds it;
        # the condition is simply re-examined on a later scrape.
        if now - state.last_transition < self.hold_s:
            return
        state.firing = firing
        state.last_transition = now
        self.events.append(
            AlertEvent(
                time=now,
                rule=rule.name,
                state="firing" if firing else "resolved",
                value=value,
                detail=rule.describe(),
            )
        )

    # -- inspection / export ------------------------------------------------

    def firing(self) -> list[str]:
        """Names of currently-firing rules, sorted."""
        return sorted(
            name for name, state in self._states.items() if state.firing
        )

    def export_jsonl(self) -> str:
        """The transition log, one JSON object per line, deterministic."""
        lines = [
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def default_rules(
    levels: tuple[str, ...] = ("immediate", "relaxed"),
    fast_window_s: float = 300.0,
    slow_window_s: float = 3600.0,
) -> list[BurnRateRule | ThresholdRule]:
    """The operator's starting rule set.

    One dual-window burn-rate rule (6× budget burn) per deadline-carrying
    level, a VM queue-depth bound of 20 (the signal that the watermark
    autoscaler is behind demand), and a windowed mean-pending-time bound
    of 10 minutes.  An operator who wants other thresholds passes their
    own rules to ``PixelsDB(alert_rules=...)``.
    """
    rules: list[BurnRateRule | ThresholdRule] = [
        BurnRateRule(
            name=f"{level}_burn_rate",
            level=level,
            threshold=6.0,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
        )
        for level in levels
    ]
    rules.append(
        ThresholdRule(
            name="vm_queue_depth",
            metric="pixels_vm_queue_depth",
            threshold=20.0,
        )
    )
    rules.append(
        ThresholdRule(
            name="pending_time_mean",
            metric="pixels_query_pending_seconds",
            threshold=600.0,
            kind="histogram_mean",
            window_s=slow_window_s,
        )
    )
    return rules
