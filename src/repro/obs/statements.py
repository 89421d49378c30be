"""Per-statement workload statistics (``pg_stat_statements`` flavour).

The :class:`StatementStore` aggregates every completed query under its
:mod:`~repro.obs.fingerprint` × service level: call counts, rows,
virtual execution time (totals plus a :class:`~repro.obs.metrics.Histogram`
per entry), bytes scanned, cache traffic, the footer-vs-chunk GET split,
and the billed price decomposed by resource.  The store sums the
integer-nanodollar split it is handed — the cost model's meter reading,
the one the ledger is charged from — so per-entry resource dollars sum
exactly to the entry's billed total, the same invariant the flame
graphs hold.

Everything is driven by the virtual clock and integer counters, so the
top-K renderings and the JSON export are byte-deterministic across runs
and invariant to ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram
from repro.obs.profiler import AXES, NANOS_PER_DOLLAR
from repro.storage.object_store import ScanCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fingerprint import Fingerprint

#: Virtual execution-time buckets: sub-second single-table scans up to
#: multi-minute held/heavy queries.
STATEMENT_TIME_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0)

#: Render/sort dimensions accepted by :meth:`StatementStore.top`.
TOP_DIMENSIONS = ("time", "dollars", "calls")


@dataclass
class StatementEntry(ScanCounters):
    """Aggregates for one fingerprint at one service level (per tenant);
    the :class:`~repro.storage.object_store.ScanCounters` are summed over
    its calls."""

    fingerprint: str
    level: str
    statement: str  # normalized text (literals stripped)
    tenant: str = "default"
    parsed: bool = True
    plan_shape: str | None = None
    calls: int = 0
    errors: int = 0
    rows_produced: int = 0
    rows_scanned: int = 0
    time_s: float = 0.0
    pending_s: float = 0.0
    nanodollars: int = 0
    #: ``nanodollars`` by resource axis; the axes sum to it.
    axes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(AXES, 0))
    time_histogram: Histogram = field(
        default_factory=lambda: Histogram(
            "statement_time_seconds", buckets=STATEMENT_TIME_BUCKETS
        ),
        repr=False,
    )

    @property
    def dollars(self) -> float:
        return self.nanodollars / NANOS_PER_DOLLAR

    @property
    def mean_time_s(self) -> float:
        return self.time_s / self.calls if self.calls else 0.0

    @property
    def cache_hit_ratio(self) -> float | None:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None


class StatementStore:
    """Fingerprint × level × tenant aggregation with deterministic
    exports."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str, str], StatementEntry] = {}

    def record(
        self,
        fingerprint: "Fingerprint",
        level: str,
        *,
        time_s: float = 0.0,
        pending_s: float = 0.0,
        nanodollars: int = 0,
        axes: dict[str, int] | None = None,
        stats=None,
        plan_shape: str | None = None,
        error: bool = False,
        tenant: str = "default",
    ) -> StatementEntry:
        """Fold one completed query into its entry.

        ``stats`` is the execution's :class:`~repro.engine.executor.QueryStats`
        (or None for failures that never produced one); ``nanodollars``
        the bill and ``axes`` its resource split (axis → nanodollars, the
        meter reading's; None for a query that billed nothing);
        ``tenant`` the submitting tenant (one entry per fingerprint ×
        level × tenant).
        """
        key = (fingerprint.id, level, tenant)
        entry = self._entries.get(key)
        if entry is None:
            entry = StatementEntry(
                fingerprint=fingerprint.id,
                level=level,
                statement=fingerprint.normalized,
                tenant=tenant,
                parsed=fingerprint.parsed,
                time_histogram=Histogram(
                    "statement_time_seconds", buckets=STATEMENT_TIME_BUCKETS
                ),
            )
            self._entries[key] = entry
        entry.calls += 1
        if error:
            entry.errors += 1
        if plan_shape is not None:
            entry.plan_shape = plan_shape
        entry.time_s += time_s
        entry.pending_s += pending_s
        entry.time_histogram.observe(time_s)
        entry.nanodollars += nanodollars
        if axes is not None:
            for axis in AXES:
                entry.axes[axis] += axes[axis]
        if stats is not None:
            entry.rows_produced += stats.rows_produced
            entry.rows_scanned += stats.rows_scanned
            entry.add(stats)
        return entry

    # -- queries ------------------------------------------------------------

    def entries(self) -> list[StatementEntry]:
        """All entries in (fingerprint, level, tenant) order."""
        return [self._entries[key] for key in sorted(self._entries)]

    def entry(
        self, fingerprint_id: str, level: str, tenant: str = "default"
    ) -> StatementEntry | None:
        return self._entries.get((fingerprint_id, level, tenant))

    def top(
        self, k: int = 10, by: str = "dollars", level: str | None = None
    ) -> list[StatementEntry]:
        """Top-``k`` entries by ``time``/``dollars``/``calls``, ties broken
        by (fingerprint, level, tenant) so the ranking is total and
        deterministic."""
        if by == "time":
            value = lambda e: e.time_s  # noqa: E731
        elif by == "dollars":
            value = lambda e: e.nanodollars  # noqa: E731
        elif by == "calls":
            value = lambda e: e.calls  # noqa: E731
        else:
            raise ValueError(
                f"unknown dimension {by!r}; expected one of {TOP_DIMENSIONS}"
            )
        pool = [
            entry
            for entry in self._entries.values()
            if level is None or entry.level == level
        ]
        pool.sort(
            key=lambda e: (-value(e), e.fingerprint, e.level, e.tenant)
        )
        return pool[:k]

    # -- exports ------------------------------------------------------------

    def render_top(self, k: int = 10, by: str = "dollars") -> str:
        """A fixed-width top-K table (one of the operator CLI surfaces)."""
        header = {
            "time": "TOP STATEMENTS BY VIRTUAL TIME",
            "dollars": "TOP STATEMENTS BY BILLED $",
            "calls": "TOP STATEMENTS BY CALLS",
        }[by]
        lines = [header, ""]
        lines.append(
            f"{'fingerprint':<14} {'level':<12} {'calls':>6} {'errs':>5} "
            f"{'time_s':>12} {'billed_$':>14} {'GB':>9} {'hit%':>6}  statement"
        )
        for entry in self.top(k, by):
            ratio = entry.cache_hit_ratio
            hit = f"{ratio * 100:5.1f}" if ratio is not None else "    -"
            statement = entry.statement
            if len(statement) > 60:
                statement = statement[:57] + "..."
            lines.append(
                f"{entry.fingerprint:<14} {entry.level:<12} "
                f"{entry.calls:>6} {entry.errors:>5} "
                f"{entry.time_s:>12.6f} {entry.dollars:>14.9f} "
                f"{entry.bytes_scanned / 1e9:>9.3f} {hit:>6}  {statement}"
            )
        if not self._entries:
            lines.append("(no statements recorded)")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> list[dict]:
        """Entries as JSON-ready dicts, (fingerprint, level, tenant)-
        sorted."""
        out: list[dict] = []
        for entry in self.entries():
            hist = entry.time_histogram
            quantiles = {
                f"p{int(q * 100)}_s": hist.quantile(q)
                for q in (0.5, 0.95, 0.99)
            }
            out.append(
                {
                    "fingerprint": entry.fingerprint,
                    "level": entry.level,
                    "tenant": entry.tenant,
                    "statement": entry.statement,
                    "parsed": entry.parsed,
                    "plan_shape": entry.plan_shape,
                    "calls": entry.calls,
                    "errors": entry.errors,
                    "rows": {
                        "produced": entry.rows_produced,
                        "scanned": entry.rows_scanned,
                    },
                    "time": {
                        "total_s": round(entry.time_s, 9),
                        "mean_s": round(entry.mean_time_s, 9),
                        "pending_total_s": round(entry.pending_s, 9),
                        **{
                            name: (
                                round(value, 9) if value is not None else None
                            )
                            for name, value in quantiles.items()
                        },
                    },
                    "nanodollars": {"billed": entry.nanodollars, **entry.axes},
                    "io": {
                        "bytes_scanned": entry.bytes_scanned,
                        "get_requests": entry.get_requests,
                        "footer_gets": entry.footer_gets,
                        "chunk_gets": entry.chunk_gets,
                        "cache_hits": entry.cache_hits,
                        "cache_misses": entry.cache_misses,
                        "cache_hit_ratio": (
                            round(entry.cache_hit_ratio, 6)
                            if entry.cache_hit_ratio is not None
                            else None
                        ),
                    },
                }
            )
        return out

    def export_json(self) -> str:
        """Byte-stable JSON export of the whole store."""
        return (
            json.dumps(
                {"statements": self.snapshot()}, indent=2, sort_keys=True
            )
            + "\n"
        )
