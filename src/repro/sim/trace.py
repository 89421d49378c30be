"""Time-series metric recording for simulation runs.

The benchmark harness reconstructs the paper's scaling curves (VM count vs
time, concurrency vs time, workers provisioned after a demand step) from
:class:`Trace` objects recorded during a run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator


@dataclass(frozen=True)
class TracePoint:
    """One sample of one metric: ``(time, value)`` plus optional tag."""

    time: float
    value: float
    tag: str = ""


def _time(point: TracePoint) -> float:
    return point.time


class Trace:
    """Append-only collection of named metric time series.  Samples of
    one series are recorded in time order (simulated time never runs
    backwards); the bisecting readers rely on it."""

    def __init__(self) -> None:
        self._series: dict[str, list[TracePoint]] = {}

    def record(self, metric: str, time: float, value: float, tag: str = "") -> None:
        """Append one sample to ``metric``'s series; ``time`` is at or
        after the series' last sample."""
        self._series.setdefault(metric, []).append(TracePoint(time, value, tag))

    def series(self, metric: str) -> list[TracePoint]:
        """All samples recorded for ``metric`` (empty list if none)."""
        return list(self._series.get(metric, []))

    def metrics(self) -> list[str]:
        """Names of all metrics that have at least one sample."""
        return sorted(self._series)

    def last(self, metric: str) -> TracePoint | None:
        """Most recent sample of ``metric``, or None."""
        points = self._series.get(metric)
        return points[-1] if points else None

    def values(self, metric: str) -> list[float]:
        """Just the values of ``metric``'s samples, in time order."""
        return [point.value for point in self._series.get(metric, [])]

    def times(self, metric: str) -> list[float]:
        """Just the timestamps of ``metric``'s samples, in time order."""
        return [point.time for point in self._series.get(metric, [])]

    def value_at(self, metric: str, time: float, default: float = 0.0) -> float:
        """Step-function lookup: the last recorded value at or before ``time``."""
        points = self._series.get(metric, [])
        at = bisect_right(points, time, key=_time)
        return points[at - 1].value if at else default

    def time_weighted_mean(
        self, metric: str, start: float, end: float, initial: float = 0.0
    ) -> float:
        """Average of the step function defined by ``metric`` over [start, end].

        Used for the low-watermark test in the autoscaler: the paper compares
        the *average* query concurrency within a period against the low
        watermark (e.g. 0.75), not an instantaneous sample.
        """
        if end <= start:
            return self.value_at(metric, start, initial)
        points = self._series.get(metric, [])
        # Only the samples inside (start, end) add terms; the one before
        # them sets the opening value.
        first = bisect_right(points, start, key=_time)
        total = 0.0
        current_value = points[first - 1].value if first else initial
        current_time = start
        for point in islice(points, first, bisect_left(points, end, key=_time)):
            total += current_value * (point.time - current_time)
            current_value = point.value
            current_time = point.time
        total += current_value * (end - current_time)
        return total / (end - start)

    def merge(self, other: "Trace") -> None:
        """Append all samples from ``other`` into this trace (stable order)."""
        for metric, points in other._series.items():
            self._series.setdefault(metric, []).extend(points)
            self._series[metric].sort(key=lambda p: p.time)

    def iter_points(self) -> Iterator[tuple[str, TracePoint]]:
        """Iterate ``(metric, point)`` pairs across every series."""
        for metric in self.metrics():
            for point in self._series[metric]:
                yield metric, point

    def to_csv(self, metrics: list[str] | None = None) -> str:
        """Render series as CSV (``metric,time,value,tag``) for plotting.

        Benchmarks keep their output textual, but downstream users often
        want the raw scaling/concurrency curves in a spreadsheet or
        matplotlib — this is the export for that.
        """
        names = metrics if metrics is not None else self.metrics()
        lines = ["metric,time,value,tag"]
        for metric in names:
            for point in self._series.get(metric, []):
                tag = point.tag.replace(",", ";")
                lines.append(f"{metric},{point.time},{point.value},{tag}")
        return "\n".join(lines) + "\n"


def downsample(points: Iterable[TracePoint], bucket: float) -> list[TracePoint]:
    """Reduce a series to one (last-value) sample per ``bucket`` seconds.

    Benchmarks use this to print compact ASCII scaling curves.
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    result: list[TracePoint] = []
    current_bucket: float | None = None
    for point in points:
        bucket_index = point.time // bucket
        if current_bucket is None or bucket_index != current_bucket:
            result.append(point)
            current_bucket = bucket_index
        else:
            result[-1] = point
    return result
