"""A small Prometheus-style metrics registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — with optional labels, owned by a
:class:`MetricsRegistry` that renders the Prometheus text exposition
format.  The recorders create instruments once at construction
(``registry.counter(...)`` is get-or-create) and update them at query
transitions; *derived* series that mirror state held elsewhere (queue depths,
the venues' worker and invocation counts, buffer-pool occupancy, the
object store's cumulative counters) are refreshed lazily by collector
callbacks that run just before each render, so they cost nothing between
scrapes.

There is no inert twin: instruments are registered and updated only by
the two recorders in :mod:`repro.obs.recorder`, the derived-series
collectors they join (:mod:`repro.obs.derived`) and the activity
registry's binding, none of which an unobserved stack builds, so the
registry in :meth:`Instrumentation.disabled()
<repro.obs.Instrumentation.disabled>` is a real one whose exposition
stays empty.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, TypeVar
from weakref import WeakMethod

_T = TypeVar("_T")
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


#: Label keys an instrument remembers, per instrument: a few times the
#: series the cardinality guard admits.
_KEY_MEMO_ENTRIES = 1024


def _escape_label_value(value: str) -> str:
    """Prometheus exposition escaping: backslash, double-quote, newline.

    Without this, a label value containing ``"`` or a newline corrupts
    the whole exposition line; with it the text format round-trips."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format: ``\\`` and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _CardinalityGuard:
    """Per-instrument cap on distinct label sets.

    High-cardinality labels (per-fingerprint, per-query) could otherwise
    grow a registry without bound; with the guard, updates to *existing*
    series always land, but a new label set beyond ``max_series`` is
    dropped and reported through the registry's drop counter instead.
    Both attributes are stamped by :meth:`MetricsRegistry._get_or_create`;
    stand-alone instruments stay uncapped.
    """

    max_series: int | None = None
    #: The registry's drop recorder, held weakly: the registry holds the
    #: instrument, and a strong reference back would make every registry
    #: a cycle only the cycle collector frees.
    _on_drop: "WeakMethod[Callable[[str], None]] | None" = None

    name: str  # provided by the concrete instrument
    #: Label key by the labels' ``items()``, for all-``str`` label values
    #: (two equal non-str values can print differently, ``1`` and ``1.0``).
    _keys: dict[tuple, _LabelKey]

    def _key(self, labels: dict[str, object]) -> _LabelKey:
        """:func:`_label_key`, sorted and printed once per label set."""
        items = tuple(labels.items())
        try:
            key = self._keys.get(items)
        except TypeError:  # an unhashable label value
            return _label_key(labels)
        if key is None:
            key = _label_key(labels)
            if len(self._keys) < _KEY_MEMO_ENTRIES and all(
                type(value) is str for _, value in items
            ):
                self._keys[items] = key
        return key

    def _admit(self, store: dict, key: _LabelKey) -> bool:
        if key in store:
            return True
        if self.max_series is not None and len(store) >= self.max_series:
            on_drop = self._on_drop() if self._on_drop is not None else None
            if on_drop is not None:
                on_drop(self.name)
            return False
        return True


class Counter(_CardinalityGuard):
    """Monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[_LabelKey, float] = {}
        self._keys = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        values = self._values
        if key not in values and not self._admit(values, key):
            return
        values[key] = values.get(key, 0.0) + value

    def set_total(self, value: float, **labels: object) -> None:
        """Overwrite the cumulative total — for collector callbacks that
        mirror a counter maintained elsewhere (e.g. ``StorageMetrics``)."""
        key = _label_key(labels)
        if not self._admit(self._values, key):
            return
        self._values[key] = value

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[str, _LabelKey, float]]:
        return [(self.name, key, value) for key, value in sorted(self._values.items())]


class Gauge(_CardinalityGuard):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[_LabelKey, float] = {}
        self._keys = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        if key not in self._values and not self._admit(self._values, key):
            return
        self._values[key] = value

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        if not self._admit(self._values, key):
            return
        self._values[key] = self._values.get(key, 0.0) + value

    def dec(self, value: float = 1.0, **labels: object) -> None:
        self.inc(-value, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[str, _LabelKey, float]]:
        return [(self.name, key, value) for key, value in sorted(self._values.items())]


#: Default histogram buckets: seconds-flavoured, spanning the sub-second
#: object-store scale up to the multi-minute pending times of held queries.
DEFAULT_BUCKETS = (
    0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)


class Histogram(_CardinalityGuard):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._keys = {}
        #: Per label set, the observations whose first bucket is each
        #: bound (the exposition's cumulative counts are summed on read).
        self._bucket_counts: dict[_LabelKey, list[int]] = {}
        self._sums: dict[_LabelKey, float] = {}
        self._counts: dict[_LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        if key not in self._counts and not self._admit(self._counts, key):
            return
        counts = self._bucket_counts.get(key)
        if counts is None:
            counts = self._bucket_counts[key] = [0] * len(self.buckets)
        buckets = self.buckets
        index = bisect_left(buckets, value)
        if index < len(buckets) and value <= buckets[index]:  # not NaN
            counts[index] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._counts.get(_label_key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def quantile(self, q: float, **labels: object) -> float | None:
        """Bucket-based quantile estimate (``histogram_quantile`` rules).

        Edge-case semantics, each pinned by a regression test:

        * empty series (or a never-observed label set) → ``None``;
        * ``q=0.0`` → the lower edge of the first occupied bucket (0 when
          that is the first bucket and its upper bound is positive);
        * ``q=1.0`` → the upper bound of the last occupied finite bucket;
        * a rank at or beyond the overflow (``+Inf``) bucket — including
          the single-finite-bucket case where every observation
          overflowed — clamps to the largest finite bucket bound instead
          of interpolating past it;
        * otherwise, linear interpolation within the bucket the rank
          falls in (the first bucket interpolates from 0 when its upper
          bound is positive, from its own bound when not).

        These are exactly Prometheus's conventions, so dashboard
        percentiles match what a scrape of the rendered buckets would
        show.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = _label_key(labels)
        count = self._counts.get(key, 0)
        if count == 0:
            return None
        counts = self._bucket_counts[key]
        rank = q * count
        previous = cumulative = 0
        for index, upper in enumerate(self.buckets):
            cumulative += counts[index]
            in_bucket = cumulative - previous
            # Skip while the rank lies past this bucket, and skip empty
            # buckets outright: a rank of 0 must land in the first
            # *occupied* bucket, and interpolating inside an empty bucket
            # would divide by zero.
            if cumulative == 0 or cumulative < rank or in_bucket == 0:
                previous = cumulative
                continue
            if index > 0:
                lower = self.buckets[index - 1]
            else:
                lower = min(0.0, upper)
            fraction = max(0.0, (rank - previous) / in_bucket)
            return lower + (upper - lower) * fraction
        # The rank falls in the +Inf overflow bucket (q=1.0 with
        # overflowed observations, or every observation overflowed).
        return self.buckets[-1]

    def samples(self) -> list[tuple[str, _LabelKey, float]]:
        out: list[tuple[str, _LabelKey, float]] = []
        for key in sorted(self._counts):
            cumulative = 0
            for index, upper in enumerate(self.buckets):
                cumulative += self._bucket_counts[key][index]
                out.append(
                    (
                        f"{self.name}_bucket",
                        key + (("le", _format_value(upper)),),
                        float(cumulative),
                    )
                )
            out.append(
                (f"{self.name}_bucket", key + (("le", "+Inf"),), float(self._counts[key]))
            )
            out.append((f"{self.name}_sum", key, self._sums[key]))
            out.append((f"{self.name}_count", key, float(self._counts[key])))
        return out


#: Default per-instrument cap on distinct label sets.  Generous for the
#: hand-labelled series the system emits (levels × venues × kinds), tight
#: enough that per-fingerprint or per-query labels cannot grow a registry
#: without bound.
DEFAULT_MAX_LABEL_SETS = 256

#: Counter the registry increments (labelled by instrument name) when the
#: cardinality guard drops a new series.
DROPPED_SERIES_COUNTER = "pixels_metrics_dropped_series_total"

#: Scheduler-front-end instrument names (created by the query server;
#: named here so dashboards, alert rules, and tests share one spelling).
#: The per-tenant depth gauge is labelled ``{tenant, level}`` and leans
#: on the cardinality guard above — a fleet of unbounded tenants cannot
#: grow the registry past ``DEFAULT_MAX_LABEL_SETS`` series.
SCHEDULER_QUEUE_DEPTH_METRIC = "pixels_scheduler_queue_depth"
ADMISSION_REJECTIONS_METRIC = "pixels_admission_rejections_total"
ADMISSION_DOWNGRADES_METRIC = "pixels_admission_downgrades_total"

#: Live-activity instrument names (created by the activity registry's
#: metrics binding and the query server's guard wiring).  The per-state
#: gauge has a fixed label set; the per-tenant projected-spend gauge and
#: the guard decision counter ride behind the cardinality guard.
ACTIVITY_QUERIES_METRIC = "pixels_activity_queries"
ACTIVITY_PROJECTED_METRIC = "pixels_activity_projected_dollars"
GUARD_DECISIONS_METRIC = "pixels_guard_decisions_total"


class MetricsRegistry:
    """Instrument factory + Prometheus text exposition."""

    def __init__(
        self, max_label_sets: int | None = DEFAULT_MAX_LABEL_SETS
    ) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[[], None]] = []
        self._shared: dict[Callable[["MetricsRegistry"], object], object] = {}
        self.max_label_sets = max_label_sets

    def _record_drop(self, name: str) -> None:
        dropped = self._instruments.get(DROPPED_SERIES_COUNTER)
        if dropped is None:
            # Created on first drop so a clean registry's exposition stays
            # noise-free; itself uncapped (one series per instrument name).
            dropped = Counter(
                DROPPED_SERIES_COUNTER,
                "Series updates dropped by the label-cardinality guard",
            )
            self._instruments[DROPPED_SERIES_COUNTER] = dropped
        dropped.inc(metric=name)

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument
        instrument = cls(name, help, **kwargs)
        instrument.max_series = self.max_label_sets
        instrument._on_drop = WeakMethod(self._record_drop)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Register a callback run before every render to refresh derived
        series from live component state."""
        self._collectors.append(collect)

    def shared(self, factory: Callable[["MetricsRegistry"], _T]) -> _T:
        """The registry's one ``factory(self)``, built on first use — how
        the components that each feed part of a derived series (every
        query server's hold queues, every coordinator's venues) find the
        one collector that sums them."""
        if factory not in self._shared:
            self._shared[factory] = factory(self)
        return self._shared[factory]  # type: ignore[return-value]

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._instruments.get(name)

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """Every registered instrument, sorted by name — the stable
        iteration order the scrape loop and the renderer share."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    def render(self) -> str:
        """The Prometheus text exposition of every instrument."""
        self.collect()
        lines: list[str] = []
        for instrument in self.instruments():
            name = instrument.name
            if instrument.help:
                lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for sample_name, key, value in instrument.samples():
                lines.append(
                    f"{sample_name}{_render_labels(key)} {_format_value(value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
