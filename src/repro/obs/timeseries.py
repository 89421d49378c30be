"""An in-memory metrics time-series store and its sim-clock scrape loop.

The PR-2 :class:`~repro.obs.metrics.MetricsRegistry` holds *current*
values; operators need *history* — queue depth over time, worker count
over time, billed $ per level over time.  :class:`ScrapeLoop` is the
bridge: on a fixed **virtual-time** cadence it runs the registry's
collectors and snapshots every sample into a :class:`TimeSeriesStore`.
Because scrape ticks are ordinary simulator events, the cadence is exact
and deterministic no matter how other events interleave, and the JSONL
export is byte-identical across same-seed runs.

The store is deliberately dumb: an append-only list of
``(time, name, labels, value)`` points with ordered-by-append iteration.
Dashboards and alert rules derive ratios/deltas at read time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.sim.events import WeakCallback

_Labels = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TsPoint:
    """One scraped sample of one series."""

    time: float
    name: str
    labels: _Labels
    value: float

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


def _label_key(labels: dict[str, object]) -> _Labels:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class TimeSeriesStore:
    """Append-only store of scraped metric samples."""

    def __init__(self) -> None:
        self._points: list[TsPoint] = []
        self._scrape_times: list[float] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> list[TsPoint]:
        return list(self._points)

    @property
    def scrape_times(self) -> list[float]:
        """The times at which full-registry snapshots were taken."""
        return list(self._scrape_times)

    def append(
        self, time: float, name: str, labels: _Labels, value: float
    ) -> None:
        self._points.append(TsPoint(time, name, labels, value))

    def mark_scrape(self, time: float) -> None:
        self._scrape_times.append(time)

    def names(self) -> list[str]:
        return sorted({point.name for point in self._points})

    def series(self, name: str, **labels: object) -> list[tuple[float, float]]:
        """``(time, value)`` samples of one series, in scrape order.

        With labels given, only exactly-matching points are returned;
        without, every point of ``name`` regardless of labels.
        """
        if labels:
            key = _label_key(labels)
            return [
                (p.time, p.value)
                for p in self._points
                if p.name == name and p.labels == key
            ]
        return [(p.time, p.value) for p in self._points if p.name == name]

    def label_sets(self, name: str) -> list[_Labels]:
        """Every distinct label set observed for ``name``, sorted."""
        return sorted({p.labels for p in self._points if p.name == name})

    def latest(self, name: str, **labels: object) -> float | None:
        samples = self.series(name, **labels)
        return samples[-1][1] if samples else None

    def value_delta(
        self, name: str, start: float, end: float, **labels: object
    ) -> float | None:
        """Increase of a cumulative series over ``(start, end]``.

        Returns None when the series has no sample at or before ``end``;
        a series that first appears inside the window counts from 0.
        """
        samples = self.series(name, **labels)
        at_end: float | None = None
        at_start = 0.0
        for time, value in samples:
            if time <= start:
                at_start = value
            if time <= end:
                at_end = value
        if at_end is None:
            return None
        return at_end - at_start

    def delta_sum(
        self, name: str, start: float, end: float, match: _Labels = ()
    ) -> float | None:
        """Sum of :meth:`value_delta` across every label set of ``name``
        that contains ``match`` as a subset — how a histogram's total
        ``_count``/``_sum`` growth is computed across its label space.

        Returns None when no matching series has a sample by ``end``.
        """
        wanted = set(match)
        total: float | None = None
        for labels in self.label_sets(name):
            if not wanted <= set(labels):
                continue
            delta = self.value_delta(name, start, end, **dict(labels))
            if delta is not None:
                total = delta if total is None else total + delta
        return total

    def export_jsonl(self) -> str:
        """One JSON object per point, append order, sorted keys —
        byte-identical across same-seed runs."""
        lines = [
            json.dumps(point.to_dict(), sort_keys=True)
            for point in self._points
        ]
        return "\n".join(lines) + ("\n" if lines else "")


class ScrapeLoop:
    """Snapshots a registry into a store on a fixed virtual-time cadence.

    Args:
        sim: The simulator (anything with ``.now`` and
            ``.schedule(delay, callback)``).
        registry: The live metrics registry to snapshot.
        store: Destination; a fresh one is created if omitted.
        interval_s: Scrape cadence in simulated seconds.
        listeners: Callables invoked with the scrape time after each
            snapshot — the alert engine hooks in here so rules evaluate
            on exactly the scrape cadence.
    """

    def __init__(
        self,
        sim,
        registry: MetricsRegistry,
        store: TimeSeriesStore | None = None,
        interval_s: float = 30.0,
        listeners: list[Callable[[float], None]] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._sim = sim
        self._registry = registry
        self.store = store if store is not None else TimeSeriesStore()
        self.interval_s = interval_s
        self._listeners = list(listeners or [])
        self._last_scrape: float | None = None
        # Held weakly: the pending tick must not pin a finished replay,
        # so a loop lapses once its owner lets go of it.
        self._tick_callback = WeakCallback(self._tick)
        sim.schedule(interval_s, self._tick_callback)

    def _tick(self) -> None:
        self._sim.schedule(self.interval_s, self._tick_callback)
        self.scrape()

    def scrape(self) -> None:
        """Take one snapshot now (also used for a final flush at export
        time, so the last partial interval is not lost)."""
        now = self._sim.now
        if self._last_scrape is not None and now == self._last_scrape:
            return  # idempotent: a forced flush on a tick boundary
        self._last_scrape = now
        self._registry.collect()
        for instrument in self._registry.instruments():
            for sample_name, key, value in instrument.samples():
                self.store.append(now, sample_name, key, value)
        self.store.mark_scrape(now)
        for listener in self._listeners:
            listener(now)
