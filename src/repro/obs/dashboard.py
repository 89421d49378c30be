"""The operator dashboard: a time-series export rendered as one file.

:func:`render_dashboard_html` turns a :class:`DashboardData` bundle into
a **self-contained** static HTML report — inline CSS, inline SVG
sparklines, no scripts, no external fetches — so it can be archived as a
CI artifact and diffed byte-for-byte between runs.
:func:`render_dashboard_text` is the console variant (unicode block
sparklines) for terminals and bench logs.

Determinism rules both renderers: iteration orders are sorted, floats go
through one fixed formatter, and all inputs come from virtual-clock
exports — so same-seed runs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import escape

from repro.obs import Instrumentation
from repro.obs.alerts import AlertEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.spend import SpendAccountant
from repro.obs.statements import StatementStore
from repro.obs.timeseries import TimeSeriesStore

#: Series drawn as sparklines, in display order: (metric, labels, title).
DEFAULT_PANELS: tuple[tuple[str, tuple[tuple[str, str], ...], str], ...] = (
    ("pixels_vm_workers", (), "VM workers"),
    ("pixels_vm_queue_depth", (), "VM queue depth"),
    ("pixels_vm_concurrency", (), "VM concurrency"),
    (
        "pixels_server_queue_depth",
        (("level", "relaxed"),),
        "held relaxed queries",
    ),
    (
        "pixels_server_queue_depth",
        (("level", "best_effort"),),
        "held best-effort queries",
    ),
    ("pixels_vm_watermark_crossings_total", (("watermark", "high"),), "scale-outs"),
    ("pixels_vm_watermark_crossings_total", (("watermark", "low"),), "scale-ins"),
)

_LEVEL_ORDER = ("immediate", "relaxed", "best_effort")


def _fmt(value: float | None, digits: int = 6) -> str:
    """The one float formatter: fixed significant digits, no locale."""
    if value is None:
        return "-"
    if value != value:  # NaN
        return "nan"
    return f"{value:.{digits}g}"


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.2f}%"


@dataclass
class DashboardData:
    """Everything one dashboard render consumes."""

    title: str
    generated_at: float  # simulated seconds at export time
    seed: int | None = None
    timeseries: TimeSeriesStore = field(default_factory=TimeSeriesStore)
    slo: dict = field(default_factory=lambda: {"levels": {}})
    alerts: list[AlertEvent] = field(default_factory=list)
    firing: list[str] = field(default_factory=list)
    audit: list[dict] = field(default_factory=list)
    #: Per-level pending-time percentiles (``level -> {p50, p95, p99}``),
    #: bucket-estimated from the ``pixels_query_pending_seconds`` histogram.
    pending_percentiles: dict = field(default_factory=dict)
    #: Top statements by billed $ from the statement store, JSON-ready
    #: rows in rank order (empty when the run had no statement stats).
    top_statements: list[dict] = field(default_factory=list)
    #: Per-tenant spend rows from the spend accountant (tenant, net
    #: dollars, per-level split, soft budget, over-budget flag).
    tenant_spend: list[dict] = field(default_factory=list)
    #: The query server's scheduler snapshot (per-tenant/per-level queue
    #: depths, WFQ shares, Jain fairness, admission verdicts) — see
    #: ``QueryServer.scheduler_snapshot()``.  Empty when the export did
    #: not come from a live server.
    scheduler: dict = field(default_factory=dict)
    #: The activity registry's live snapshot (lifecycle states, per-query
    #: progress, projected vs. actual $) — see
    #: ``ActivityRegistry.snapshot()``.  Empty without observability.
    activity: dict = field(default_factory=dict)

    @staticmethod
    def build(
        title: str,
        now: float,
        obs: Instrumentation,
        audit: list[dict] | None = None,
        seed: int | None = None,
        scheduler: dict | None = None,
    ) -> "DashboardData":
        """Every panel of ``obs`` at ``now``, after its final scrape; an
        unobserved bundle gives empty panels."""
        alerts, timeseries = obs.alerts, obs.scrape()
        return DashboardData(
            title=title,
            generated_at=now,
            seed=seed,
            timeseries=timeseries if timeseries is not None else TimeSeriesStore(),
            slo=obs.slo.snapshot(),
            alerts=list(alerts.events) if alerts is not None else [],
            firing=alerts.firing() if alerts is not None else [],
            audit=list(audit or []),
            pending_percentiles=_pending_percentiles(obs.metrics),
            top_statements=_top_statement_rows(obs.statements),
            tenant_spend=_tenant_spend_rows(obs.spend),
            scheduler=dict(scheduler or {}),
            activity=obs.activity.snapshot() if obs.enabled else {},
        )


def _top_statement_rows(statements: StatementStore, k: int = 10) -> list[dict]:
    """Rank-ordered top-``k`` statements by billed $ for the panel."""
    rows: list[dict] = []
    for entry in statements.top(k, by="dollars"):
        ratio = entry.cache_hit_ratio
        rows.append(
            {
                "fingerprint": entry.fingerprint,
                "level": entry.level,
                "statement": entry.statement,
                "calls": entry.calls,
                "errors": entry.errors,
                "time_s": entry.time_s,
                "mean_time_s": entry.mean_time_s,
                "dollars": entry.dollars,
                "bytes_scanned": entry.bytes_scanned,
                "cache_hit_ratio": ratio,
            }
        )
    return rows


def _tenant_spend_rows(spend: SpendAccountant) -> list[dict]:
    """Per-tenant net-spend rows (descending by spend) for the panel."""
    report = spend.report()
    rows = list(report.get("tenants", []))
    rows.sort(key=lambda r: (-r["nanodollars"], r["tenant"]))
    return rows


def _scheduler_rows(scheduler: dict) -> list[dict]:
    """Per-tenant scheduler rows (held depth per level, live count, WFQ
    share, dispatch count) from a ``scheduler_snapshot()`` dict."""
    if not scheduler:
        return []
    queues = scheduler.get("queues", {})
    dispatched = scheduler.get("dispatched_by_tenant", {})
    shares = scheduler.get("shares", {})
    live = scheduler.get("tenant_live", {})
    tenants = sorted(
        set(dispatched)
        | set(live)
        | {t for depths in queues.values() for t in depths}
    )
    default_share = shares.get("default", 1.0)
    return [
        {
            "tenant": tenant,
            "relaxed": queues.get("relaxed", {}).get(tenant, 0),
            "best_effort": queues.get("best_effort", {}).get(tenant, 0),
            "live": live.get(tenant, 0),
            "share": shares.get(tenant, default_share),
            "dispatched": dispatched.get(tenant, 0),
        }
        for tenant in tenants
    ]


def _activity_rows(activity: dict) -> list[dict]:
    """Per-query rows for the "Active queries" panel, straight from an
    ``ActivityRegistry.snapshot()`` dict (already in submission order)."""
    rows: list[dict] = []
    for query in activity.get("queries", []):
        projection = query.get("projection", {})
        rows.append(
            {
                "query_id": query.get("query_id", ""),
                "state": query.get("state", ""),
                "tenant": query.get("tenant", ""),
                "level": query.get("level") or "-",
                "venue": query.get("venue") or "-",
                "progress": float(query.get("progress", 0.0)),
                "projected_nanos": projection.get("nanodollars"),
                "remaining_s": projection.get("remaining_s"),
                "actual_nanos": query.get("actual_nanodollars"),
                "detail": query.get("detail", ""),
            }
        )
    return rows


def _state_summary(activity: dict) -> str:
    states = activity.get("states", {})
    if not states:
        return "-"
    return ", ".join(f"{state}={states[state]}" for state in sorted(states))


def _progress_bar_text(fraction: float, width: int = 12) -> str:
    """``[#####-------]``-style bar for the console renderer."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _nanos_dollars(nanos) -> str:
    return "-" if nanos is None else f"{nanos / 1e9:.9f}"


def _verdict_summary(counts: dict) -> str:
    """``reason=count`` listing for admission reject/downgrade tallies."""
    if not counts:
        return "-"
    return ", ".join(f"{reason}={counts[reason]}" for reason in sorted(counts))


def _pending_percentiles(registry: MetricsRegistry) -> dict:
    """p50/p95/p99 pending time per level from the registry's histogram."""
    histogram = registry.get("pixels_query_pending_seconds")
    if histogram is None or not hasattr(histogram, "quantile"):
        return {}
    out: dict = {}
    for name in _LEVEL_ORDER:
        if histogram.count(level=name):
            out[name] = {
                label: histogram.quantile(q, level=name)
                for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
            }
    return out


def _ordered_levels(levels: dict) -> list[str]:
    known = [name for name in _LEVEL_ORDER if name in levels]
    extra = sorted(name for name in levels if name not in _LEVEL_ORDER)
    return known + extra


def _cache_hit_ratio_series(store: TimeSeriesStore) -> list[tuple[float, float]]:
    """Chunk-cache hit ratio at each scrape, from cumulative counters."""
    hits = dict(
        store.series(
            "pixels_cache_events_total", kind="chunk", outcome="hit"
        )
    )
    misses = dict(
        store.series(
            "pixels_cache_events_total", kind="chunk", outcome="miss"
        )
    )
    out: list[tuple[float, float]] = []
    for time in sorted(set(hits) | set(misses)):
        hit = hits.get(time, 0.0)
        total = hit + misses.get(time, 0.0)
        if total > 0:
            out.append((time, hit / total))
    return out


def _billed_series(store: TimeSeriesStore, level: str) -> list[tuple[float, float]]:
    return store.series("pixels_billed_dollars_total", level=level)


# -- SVG sparklines -------------------------------------------------------------

_SPARK_W = 220.0
_SPARK_H = 42.0
_SPARK_PAD = 3.0


def _sparkline_svg(samples: list[tuple[float, float]]) -> str:
    """A fixed-size inline SVG polyline over ``(time, value)`` samples."""
    if not samples:
        return '<svg class="spark" viewBox="0 0 220 42"></svg>'
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    t0, t1 = min(times), max(times)
    v0, v1 = min(values), max(values)
    t_span = (t1 - t0) or 1.0
    v_span = (v1 - v0) or 1.0
    points = []
    for t, v in samples:
        x = _SPARK_PAD + (t - t0) / t_span * (_SPARK_W - 2 * _SPARK_PAD)
        y = (
            _SPARK_H
            - _SPARK_PAD
            - (v - v0) / v_span * (_SPARK_H - 2 * _SPARK_PAD)
        )
        points.append(f"{x:.2f},{y:.2f}")
    return (
        '<svg class="spark" viewBox="0 0 220 42">'
        f'<polyline fill="none" stroke="#2563ab" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg>'
    )


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline_text(samples: list[tuple[float, float]], width: int = 40) -> str:
    """A unicode block sparkline for the console renderer."""
    if not samples:
        return ""
    values = [v for _, v in samples]
    if len(values) > width:  # last-value downsample into ``width`` cells
        step = len(values) / width
        values = [values[min(int((i + 1) * step) - 1, len(values) - 1)]
                  for i in range(width)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        _SPARK_GLYPHS[
            min(
                int((v - lo) / span * len(_SPARK_GLYPHS)),
                len(_SPARK_GLYPHS) - 1,
            )
        ]
        for v in values
    )


# -- HTML ----------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 24px; color: #1c2733; background: #f7f9fb; }
h1 { font-size: 20px; margin-bottom: 2px; }
h2 { font-size: 15px; margin: 22px 0 8px; border-bottom: 1px solid #d5dde5;
     padding-bottom: 3px; }
.meta { color: #5b6b7b; font-size: 12px; }
table { border-collapse: collapse; font-size: 13px; background: #fff; }
th, td { border: 1px solid #d5dde5; padding: 4px 10px; text-align: right; }
th { background: #eef2f6; font-weight: 600; }
td.l, th.l { text-align: left; }
.panels { display: flex; flex-wrap: wrap; gap: 14px; }
.panel { background: #fff; border: 1px solid #d5dde5; border-radius: 4px;
         padding: 8px 10px; }
.panel .title { font-size: 12px; color: #5b6b7b; }
.panel .last { font-size: 16px; font-weight: 600; }
.spark { display: block; margin-top: 4px; }
.ok { color: #1a7f37; } .bad { color: #b42318; font-weight: 600; }
.firing { background: #fdecea; }
.pbar { display: inline-block; width: 90px; height: 9px; background: #e4eaf0;
        border: 1px solid #d5dde5; border-radius: 3px; vertical-align: middle; }
.pfill { height: 100%; background: #2563ab; border-radius: 3px; }
"""


def render_dashboard_html(data: DashboardData) -> str:
    """The self-contained static HTML report."""
    store = data.timeseries
    out: list[str] = []
    out.append("<!DOCTYPE html>")
    out.append('<html lang="en"><head><meta charset="utf-8">')
    out.append(f"<title>{escape(data.title)}</title>")
    out.append(f"<style>{_CSS}</style></head><body>")
    out.append(f"<h1>{escape(data.title)}</h1>")
    seed_part = f" · seed {data.seed}" if data.seed is not None else ""
    out.append(
        f'<div class="meta">simulated time {_fmt(data.generated_at)}s'
        f" · {len(store)} samples over {len(store.scrape_times)} scrapes"
        f"{escape(seed_part)}</div>"
    )

    # -- per-level compliance + price-vs-SLO summary --
    out.append("<h2>Service levels: deadline compliance &amp; price</h2>")
    out.append("<table><tr>")
    for header in (
        "level", "queries", "violations", "compliance", "rolling",
        "target", "budget consumed", "budget state", "billed $",
        "pending p50 (s)", "pending p95 (s)", "pending p99 (s)",
    ):
        css = ' class="l"' if header == "level" else ""
        out.append(f"<th{css}>{header}</th>")
    out.append("</tr>")
    levels = data.slo.get("levels", {})
    for name in _ordered_levels(levels):
        level = levels[name]
        budget = level.get("budget", {})
        exhausted = budget.get("exhausted", False)
        state_css = "bad" if exhausted else "ok"
        state = "EXHAUSTED" if exhausted else "ok"
        percentiles = data.pending_percentiles.get(name, {})
        out.append(
            "<tr>"
            f'<td class="l">{escape(name)}</td>'
            f"<td>{level.get('queries', 0)}</td>"
            f"<td>{level.get('violations', 0)}</td>"
            f"<td>{_pct(level.get('compliance'))}</td>"
            f"<td>{_pct(level.get('rolling_compliance'))}</td>"
            f"<td>{_pct(level.get('objective', {}).get('target'))}</td>"
            f"<td>{_pct(budget.get('consumed_fraction'))}</td>"
            f'<td class="{state_css}">{state}</td>'
            f"<td>{_fmt(level.get('billed'))}</td>"
            f"<td>{_fmt(percentiles.get('p50'))}</td>"
            f"<td>{_fmt(percentiles.get('p95'))}</td>"
            f"<td>{_fmt(percentiles.get('p99'))}</td>"
            "</tr>"
        )
    out.append("</table>")

    # -- sparkline panels --
    out.append("<h2>Cluster over time</h2>")
    out.append('<div class="panels">')
    panels = list(DEFAULT_PANELS)
    for name, labels, title in panels:
        samples = store.series(name, **dict(labels))
        if not samples:
            continue
        out.append(
            '<div class="panel">'
            f'<div class="title">{escape(title)}</div>'
            f'<div class="last">{_fmt(samples[-1][1])}</div>'
            f"{_sparkline_svg(samples)}</div>"
        )
    ratio = _cache_hit_ratio_series(store)
    if ratio:
        out.append(
            '<div class="panel">'
            '<div class="title">chunk-cache hit ratio</div>'
            f'<div class="last">{_pct(ratio[-1][1])}</div>'
            f"{_sparkline_svg(ratio)}</div>"
        )
    for name in _ordered_levels(levels):
        billed = _billed_series(store, name)
        if billed:
            out.append(
                '<div class="panel">'
                f'<div class="title">billed $ ({escape(name)})</div>'
                f'<div class="last">{_fmt(billed[-1][1])}</div>'
                f"{_sparkline_svg(billed)}</div>"
            )
    out.append("</div>")

    # -- scheduler: queue depths, shares, admission verdicts, fairness --
    # (rendered only for single-server snapshots; a multi-schema export
    # keys snapshots by schema and has no top-level "queues")
    if data.scheduler and "queues" in data.scheduler:
        sched = data.scheduler
        admission = sched.get("admission", {})
        fairness = sched.get("fairness", {}).get("jain_dispatched")
        out.append("<h2>Scheduler</h2>")
        out.append(
            '<div class="meta">'
            f"admitted {admission.get('admitted', 0)}"
            f" · rejected: {escape(_verdict_summary(admission.get('rejected', {})))}"
            f" · downgraded: {escape(_verdict_summary(admission.get('downgraded', {})))}"
            f" · Jain fairness {_fmt(fairness)}"
            "</div>"
        )
        rows = _scheduler_rows(sched)
        if rows:
            out.append("<table><tr>")
            for header in (
                "tenant", "held relaxed", "held best-effort", "live",
                "share", "WFQ dispatches",
            ):
                css = ' class="l"' if header == "tenant" else ""
                out.append(f"<th{css}>{header}</th>")
            out.append("</tr>")
            for row in rows:
                out.append(
                    "<tr>"
                    f'<td class="l">{escape(str(row["tenant"]))}</td>'
                    f"<td>{row['relaxed']}</td>"
                    f"<td>{row['best_effort']}</td>"
                    f"<td>{row['live']}</td>"
                    f"<td>{_fmt(row['share'])}</td>"
                    f"<td>{row['dispatched']}</td>"
                    "</tr>"
                )
            out.append("</table>")
        else:
            out.append('<div class="meta">no held or dispatched queries</div>')

    # -- live query activity: progress bars + projected-vs-actual $ --
    if data.activity:
        rows = _activity_rows(data.activity)
        out.append("<h2>Active queries</h2>")
        out.append(
            '<div class="meta">states: '
            f"{escape(_state_summary(data.activity))}</div>"
        )
        if rows:
            out.append("<table><tr>")
            for header in (
                "query", "state", "tenant", "level", "venue", "progress",
                "projected $", "actual $", "ETA (s)",
            ):
                css = (
                    ' class="l"'
                    if header in ("query", "state", "tenant", "level",
                                  "venue", "progress")
                    else ""
                )
                out.append(f"<th{css}>{header}</th>")
            out.append("</tr>")
            for row in rows:
                pct = min(1.0, max(0.0, row["progress"])) * 100.0
                bar = (
                    '<div class="pbar"><div class="pfill" '
                    f'style="width:{pct:.1f}%"></div></div> {pct:.1f}%'
                )
                out.append(
                    "<tr>"
                    f'<td class="l">{escape(str(row["query_id"]))}</td>'
                    f'<td class="l">{escape(str(row["state"]))}</td>'
                    f'<td class="l">{escape(str(row["tenant"]))}</td>'
                    f'<td class="l">{escape(str(row["level"]))}</td>'
                    f'<td class="l">{escape(str(row["venue"]))}</td>'
                    f'<td class="l">{bar}</td>'
                    f"<td>{_nanos_dollars(row['projected_nanos'])}</td>"
                    f"<td>{_nanos_dollars(row['actual_nanos'])}</td>"
                    f"<td>{_fmt(row['remaining_s'])}</td>"
                    "</tr>"
                )
            out.append("</table>")
        else:
            out.append('<div class="meta">no queries tracked</div>')

    # -- per-tenant spend (metering ledger) --
    if data.tenant_spend:
        out.append("<h2>Spend by tenant</h2>")
        out.append("<table><tr>")
        for header in (
            "tenant", "net $", "by level", "budget $", "status",
        ):
            css = ' class="l"' if header in ("tenant", "by level") else ""
            out.append(f"<th{css}>{header}</th>")
        out.append("</tr>")
        for row in data.tenant_spend:
            by_level = ", ".join(
                f"{level}={nanos / 1e9:.9f}"
                for level, nanos in row.get("by_level", {}).items()
            )
            budget = row.get("budget_dollars")
            status = (
                "OVER BUDGET"
                if row.get("over_budget")
                else ("ok" if budget is not None else "-")
            )
            out.append(
                "<tr>"
                f'<td class="l">{escape(str(row.get("tenant", "")))}</td>'
                f"<td>{_fmt(row.get('dollars'), 9)}</td>"
                f'<td class="l">{escape(by_level)}</td>'
                f"<td>{_fmt(budget, 4) if budget is not None else '-'}</td>"
                f"<td>{escape(status)}</td>"
                "</tr>"
            )
        out.append("</table>")

    # -- top queries (statement statistics) --
    if data.top_statements:
        out.append("<h2>Top queries by billed $</h2>")
        out.append("<table><tr>")
        for header in (
            "fingerprint", "level", "calls", "errors", "time (s)",
            "mean (s)", "billed $", "GB scanned", "cache hit",
            "statement",
        ):
            css = (
                ' class="l"'
                if header in ("fingerprint", "level", "statement")
                else ""
            )
            out.append(f"<th{css}>{header}</th>")
        out.append("</tr>")
        for row in data.top_statements:
            statement = row.get("statement", "")
            if len(statement) > 80:
                statement = statement[:77] + "..."
            out.append(
                "<tr>"
                f'<td class="l">{escape(str(row.get("fingerprint", "")))}</td>'
                f'<td class="l">{escape(str(row.get("level", "")))}</td>'
                f"<td>{row.get('calls', 0)}</td>"
                f"<td>{row.get('errors', 0)}</td>"
                f"<td>{_fmt(row.get('time_s'))}</td>"
                f"<td>{_fmt(row.get('mean_time_s'))}</td>"
                f"<td>{_fmt(row.get('dollars'), 9)}</td>"
                f"<td>{_fmt(row.get('bytes_scanned', 0) / 1e9, 4)}</td>"
                f"<td>{_pct(row.get('cache_hit_ratio'))}</td>"
                f'<td class="l">{escape(statement)}</td>'
                "</tr>"
            )
        out.append("</table>")

    # -- alert timeline --
    out.append("<h2>Alerts</h2>")
    if data.firing:
        names = ", ".join(escape(name) for name in data.firing)
        out.append(f'<div class="meta bad">still firing: {names}</div>')
    if data.alerts:
        out.append(
            '<table><tr><th>time (s)</th><th class="l">rule</th>'
            '<th class="l">state</th><th>value</th><th class="l">rule text'
            "</th></tr>"
        )
        for event in data.alerts:
            css = ' class="firing"' if event.state == "firing" else ""
            out.append(
                f"<tr{css}><td>{_fmt(event.time)}</td>"
                f'<td class="l">{escape(event.rule)}</td>'
                f'<td class="l">{escape(event.state)}</td>'
                f"<td>{_fmt(event.value)}</td>"
                f'<td class="l">{escape(event.detail)}</td></tr>'
            )
        out.append("</table>")
    else:
        out.append('<div class="meta">no alerts fired</div>')

    # -- autoscaler audit log --
    out.append("<h2>Autoscaler decisions</h2>")
    if data.audit:
        out.append(
            '<table><tr><th>time (s)</th><th class="l">action</th>'
            '<th class="l">watermark</th><th>trigger</th><th>threshold</th>'
            "<th>concurrency</th><th>queue</th><th>workers</th><th>Δ</th>"
            "<th>target</th></tr>"
        )
        for entry in data.audit:
            out.append(
                f"<tr><td>{_fmt(entry.get('time'))}</td>"
                f'<td class="l">{escape(str(entry.get("action", "")))}</td>'
                f'<td class="l">{escape(str(entry.get("watermark", "")))}</td>'
                f"<td>{_fmt(entry.get('trigger_value'))}</td>"
                f"<td>{_fmt(entry.get('threshold'))}</td>"
                f"<td>{entry.get('concurrency', 0)}</td>"
                f"<td>{entry.get('queue_depth', 0)}</td>"
                f"<td>{entry.get('workers_before', 0)}</td>"
                f"<td>{entry.get('delta', 0):+d}</td>"
                f"<td>{entry.get('workers_target', 0)}</td></tr>"
            )
        out.append("</table>")
    else:
        out.append('<div class="meta">no scaling decisions recorded</div>')

    out.append("</body></html>")
    return "\n".join(out) + "\n"


# -- plain text ----------------------------------------------------------------


def render_dashboard_text(data: DashboardData, width: int = 40) -> str:
    """The console variant of the dashboard."""
    store = data.timeseries
    lines: list[str] = []
    lines.append(data.title)
    lines.append("=" * len(data.title))
    lines.append(
        f"simulated time {_fmt(data.generated_at)}s · "
        f"{len(store)} samples over {len(store.scrape_times)} scrapes"
    )
    lines.append("")
    lines.append("service levels")
    lines.append("-" * 14)
    levels = data.slo.get("levels", {})
    header = (
        f"{'level':<12} {'queries':>8} {'viol':>6} {'compliance':>11} "
        f"{'target':>8} {'budget':>10} {'billed $':>12} "
        f"{'pend p50/p95/p99 (s)':>22}"
    )
    lines.append(header)
    for name in _ordered_levels(levels):
        level = levels[name]
        budget = level.get("budget", {})
        state = "EXHAUSTED" if budget.get("exhausted") else _pct(
            budget.get("consumed_fraction")
        )
        percentiles = data.pending_percentiles.get(name, {})
        pend = "/".join(
            _fmt(percentiles.get(label), 4)
            for label in ("p50", "p95", "p99")
        )
        lines.append(
            f"{name:<12} {level.get('queries', 0):>8} "
            f"{level.get('violations', 0):>6} "
            f"{_pct(level.get('compliance')):>11} "
            f"{_pct(level.get('objective', {}).get('target')):>8} "
            f"{state:>10} {_fmt(level.get('billed')):>12} "
            f"{pend:>22}"
        )
    lines.append("")
    lines.append("cluster over time")
    lines.append("-" * 17)
    for name, labels, title in DEFAULT_PANELS:
        samples = store.series(name, **dict(labels))
        if not samples:
            continue
        spark = _sparkline_text(samples, width)
        lines.append(f"{title:<26} {spark}  last={_fmt(samples[-1][1])}")
    ratio = _cache_hit_ratio_series(store)
    if ratio:
        lines.append(
            f"{'chunk-cache hit ratio':<26} {_sparkline_text(ratio, width)}"
            f"  last={_pct(ratio[-1][1])}"
        )
    if data.scheduler and "queues" in data.scheduler:
        sched = data.scheduler
        admission = sched.get("admission", {})
        fairness = sched.get("fairness", {}).get("jain_dispatched")
        lines.append("")
        lines.append("scheduler")
        lines.append("-" * 9)
        lines.append(
            f"admitted {admission.get('admitted', 0)} · "
            f"rejected: {_verdict_summary(admission.get('rejected', {}))} · "
            f"downgraded: {_verdict_summary(admission.get('downgraded', {}))} · "
            f"Jain fairness {_fmt(fairness)}"
        )
        rows = _scheduler_rows(sched)
        if rows:
            lines.append(
                f"{'tenant':<16} {'relaxed':>8} {'best_eff':>9} "
                f"{'live':>6} {'share':>7} {'dispatched':>11}"
            )
            for row in rows:
                lines.append(
                    f"{str(row['tenant']):<16} {row['relaxed']:>8} "
                    f"{row['best_effort']:>9} {row['live']:>6} "
                    f"{_fmt(row['share']):>7} {row['dispatched']:>11}"
                )
    if data.activity:
        lines.append("")
        lines.append("active queries")
        lines.append("-" * 14)
        lines.append(f"states: {_state_summary(data.activity)}")
        rows = _activity_rows(data.activity)
        if rows:
            lines.append(
                f"{'query':<12} {'state':<10} {'tenant':<12} {'level':<12} "
                f"{'progress':<22} {'projected_$':>14} {'actual_$':>14}"
            )
            for row in rows:
                bar = _progress_bar_text(row["progress"])
                pct = min(1.0, max(0.0, row["progress"])) * 100.0
                lines.append(
                    f"{str(row['query_id']):<12} {str(row['state']):<10} "
                    f"{str(row['tenant']):<12} {str(row['level']):<12} "
                    f"{bar + f' {pct:5.1f}%':<22} "
                    f"{_nanos_dollars(row['projected_nanos']):>14} "
                    f"{_nanos_dollars(row['actual_nanos']):>14}"
                )
        else:
            lines.append("(no queries tracked)")
    if data.tenant_spend:
        lines.append("")
        lines.append("spend by tenant")
        lines.append("-" * 15)
        lines.append(
            f"{'tenant':<16} {'net_$':>14} {'budget_$':>10}  status"
        )
        for row in data.tenant_spend:
            budget = row.get("budget_dollars")
            status = (
                "OVER BUDGET"
                if row.get("over_budget")
                else ("ok" if budget is not None else "-")
            )
            lines.append(
                f"{str(row.get('tenant', '')):<16} "
                f"{row.get('dollars', 0.0):>14.9f} "
                f"{(f'{budget:.4f}' if budget is not None else '-'):>10}"
                f"  {status}"
            )
    if data.top_statements:
        lines.append("")
        lines.append("top queries by billed $")
        lines.append("-" * 23)
        lines.append(
            f"{'fingerprint':<14} {'level':<12} {'calls':>6} "
            f"{'time_s':>12} {'billed_$':>14}  statement"
        )
        for row in data.top_statements:
            statement = str(row.get("statement", ""))
            if len(statement) > 48:
                statement = statement[:45] + "..."
            lines.append(
                f"{str(row.get('fingerprint', '')):<14} "
                f"{str(row.get('level', '')):<12} {row.get('calls', 0):>6} "
                f"{row.get('time_s', 0.0):>12.6f} "
                f"{row.get('dollars', 0.0):>14.9f}  {statement}"
            )
    lines.append("")
    lines.append("alerts")
    lines.append("-" * 6)
    if data.alerts:
        for event in data.alerts:
            lines.append(
                f"t={_fmt(event.time):>9}s {event.state:<9} {event.rule:<22} "
                f"value={_fmt(event.value)}  [{event.detail}]"
            )
    else:
        lines.append("(none)")
    if data.firing:
        lines.append(f"still firing: {', '.join(data.firing)}")
    lines.append("")
    lines.append("autoscaler decisions")
    lines.append("-" * 20)
    if data.audit:
        for entry in data.audit:
            lines.append(
                f"t={_fmt(entry.get('time')):>9}s "
                f"{str(entry.get('action', '')):<10} "
                f"watermark={str(entry.get('watermark', '')):<5} "
                f"trigger={_fmt(entry.get('trigger_value'))} "
                f"vs {_fmt(entry.get('threshold'))}  "
                f"workers {entry.get('workers_before', 0)} "
                f"{entry.get('delta', 0):+d} "
                f"-> target {entry.get('workers_target', 0)}"
            )
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"
