"""Shared infrastructure for the experiment benches.

Each bench file regenerates one row of DESIGN.md's per-experiment index:
it runs the experiment on the simulated stack, prints a paper-vs-measured
table through ``report()`` (visible in ``bench_output.txt``), and asserts
the claim's qualitative shape so the harness is self-checking.

Datasets are generated once per scale and cached for the whole pytest
session — loading dominates bench start-up otherwise.
"""

from __future__ import annotations

import json
import os

from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.workloads import LogsGenerator, TpchGenerator, load_dataset

_DATASET_CACHE: dict[tuple, tuple[ObjectStore, Catalog]] = {}

HEAVY_SQL = (
    "SELECT l_returnflag, l_linestatus, sum(l_extendedprice) AS revenue, "
    "count(*) AS n FROM lineitem GROUP BY l_returnflag, l_linestatus"
)
MEDIUM_SQL = (
    "SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS total "
    "FROM orders GROUP BY o_orderstatus"
)
LIGHT_SQL = "SELECT count(*) FROM customer"


def tpch_environment(scale: float = 0.2, seed: int = 42):
    """(store, catalog) with a TPC-H dataset loaded — cached per scale."""
    key = ("tpch", scale, seed)
    if key not in _DATASET_CACHE:
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale, seed).tables())
        _DATASET_CACHE[key] = (store, catalog)
    return _DATASET_CACHE[key]


def logs_environment(num_rows: int = 5000, seed: int = 7):
    """(store, catalog) with the web-log dataset loaded — cached."""
    key = ("logs", num_rows, seed)
    if key not in _DATASET_CACHE:
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(
            store, catalog, "weblogs", [LogsGenerator(num_rows, seed).table()]
        )
        _DATASET_CACHE[key] = (store, catalog)
    return _DATASET_CACHE[key]


def write_observability_artifacts(slug: str, result, title: str) -> dict[str, str]:
    """Persist an observed replay's exports under ``benchmarks/results/``.

    Writes the time-series JSONL, alert transition log, autoscaler audit
    log, SLO record dump, the rendered dashboard HTML, the statement
    stats, the query journal, the activity snapshot, and the estimator's
    projection-accuracy record — all deterministic, so re-runs diff
    cleanly.  Returns {kind: path}.  Requires
    ``run_workload(observe=True)``.
    """
    from repro.obs.dashboard import render_dashboard_html

    data = result.dashboard_data(title)  # takes the final scrape
    artifacts = {
        "timeseries": (f"{slug}_timeseries.jsonl", result.obs.export("timeseries")),
        "alerts": (f"{slug}_alerts.jsonl", result.obs.export("alerts")),
        "audit": (
            f"{slug}_audit.jsonl",
            result.coordinator.vm_cluster.export_audit_jsonl(),
        ),
        "slo": (f"{slug}_slo.json", result.obs.export("slo")),
        "dashboard": (f"{slug}_dashboard.html", render_dashboard_html(data)),
        "statements": (f"{slug}_statements.json", result.obs.export("statements")),
        "statements_top": (
            f"{slug}_statements_top.txt",
            result.obs.statements.render_top(10, "dollars"),
        ),
        "journal": (f"{slug}_journal.jsonl", result.obs.export("journal")),
        "activity": (f"{slug}_activity.json", result.obs.export("activity")),
        "projections": (
            f"{slug}_projections.json", result.obs.export("projections")
        ),
    }
    return _write_results(artifacts)


def _write_results(artifacts: dict[str, tuple[str, str]]) -> dict[str, str]:
    """Write each {kind: (filename, payload)} under ``benchmarks/results/``;
    returns {kind: path}."""
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    paths: dict[str, str] = {}
    for kind, (filename, payload) in artifacts.items():
        path = os.path.join(results_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        paths[kind] = path
    return paths


def export_ledger_audit(slug: str, result) -> dict[str, str]:
    """Reconcile an observed replay's metering ledger and persist the
    billing-audit artifacts under ``benchmarks/results/``.

    Asserts the reconciler's end-to-end proof (ledger sum == profiler
    attribution == billed price == $/TB bytes basis, exact integer
    nanodollars) for every query in the replay, then writes the ledger
    JSONL, the spend report, and the reconciliation report — the files
    ``reconcile_gate.py`` replays in CI.  Requires
    ``run_workload(observe=True)``.  Returns {kind: path}.
    """
    from repro.obs.reconcile import reconcile_server

    if not result.obs.enabled:
        raise ValueError("run the workload with observe=True first")
    report = reconcile_server(result.server)
    assert report.ok, f"billing reconciliation failed:\n{report.render()}"
    return _write_results(
        {
            "ledger": (f"{slug}_ledger.jsonl", result.obs.export("ledger")),
            "spend": (f"{slug}_spend.json", result.obs.export("spend")),
            "reconciliation": (
                f"{slug}_reconciliation.json", report.export_json()
            ),
        }
    )


def workload_profile(result) -> dict:
    """Per-operator resource totals over a whole observed replay.

    Folds every finished query's cost/time attribution profile into one
    ``{"operators": {name: {time_s, nanodollars, bytes_scanned,
    get_requests}}}`` table — the optional ``"profile"`` section of a
    bench record, which ``perf_gate.py --explain`` diffs to name the
    operator and resource behind a failed baseline comparison.  Self
    values only, so totals sum exactly to the workload's virtual time
    and billed nanodollars.  Requires ``run_workload(observe=True)``.
    """
    operators: dict[str, dict] = {}

    def visit(node) -> None:
        row = operators.setdefault(
            node.name,
            {
                "time_s": 0.0,
                "nanodollars": 0,
                "bytes_scanned": 0,
                "get_requests": 0,
            },
        )
        row["time_s"] += node.self_time_s
        row["nanodollars"] += node.self_nanodollars
        row["bytes_scanned"] += node.bytes_scanned
        row["get_requests"] += node.get_requests
        for child in node.children:
            visit(child)

    for query in result.finished():
        visit(result.server.query_profile(query.query_id).root)
    for row in operators.values():
        row["time_s"] = round(row["time_s"], 9)
    return {"operators": {name: operators[name] for name in sorted(operators)}}


# -- benchmark trajectory (BENCH_<slug>.json + perf gate) -----------------------

#: Bumped when the record layout changes; the gate refuses cross-version
#: comparisons instead of mis-reading old baselines.
BENCH_SCHEMA_VERSION = 1

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def baseline_path(slug: str) -> str:
    """The committed baseline for ``slug`` (repo root, tracked by git)."""
    return os.path.join(_REPO_ROOT, f"BENCH_{slug}.json")


def fresh_path(slug: str) -> str:
    """The fresh-run record for ``slug`` (results dir, gitignored)."""
    return os.path.join(_RESULTS_DIR, f"bench_{slug}.json")


def workload_metrics(result) -> dict:
    """The deterministic metric set every workload bench records.

    All five are exact simulation outputs — identical across runs and
    machines for the same seed — which is what lets the perf gate demand
    exact matches.  Bytes/GETs come from per-query :class:`QueryStats`
    (not the store's global counters) so the numbers are independent of
    test execution order against the session-cached dataset.
    """
    finished = result.finished()
    stats = [
        q.execution.result.stats
        for q in finished
        if q.execution is not None and q.execution.result is not None
    ]
    return {
        "finished_queries": len(finished),
        "billed_dollars": round(result.billed(), 12),
        "logical_bytes_scanned": sum(s.bytes_scanned for s in stats),
        "get_requests": sum(s.get_requests for s in stats),
        "sim_seconds": round(result.sim.now, 9),
    }


def bench_record(slug: str, run, metrics, *, rounds: int = 2, warmup: int = 0,
                 meta: dict | None = None, profile=None):
    """Run ``run()`` ``warmup + rounds`` times and record the trajectory.

    ``metrics(result)`` must return the bench's *deterministic* metric
    dict; it is computed every round and asserted identical across rounds
    (a built-in determinism self-check — a bench whose simulated numbers
    wobble cannot seed a baseline).  Wall time is not recorded here —
    ``benchmarks/layers`` measures it.

    ``profile(result)``, when given, computes the optional per-operator
    resource table (see :func:`workload_profile`) from the last round's
    result.  It lands in the record's top-level ``"profile"`` key, which
    the gate's metric comparison ignores — old baselines without one
    stay valid — and ``perf_gate.py --explain`` diffs for root-causing.

    The record is always written to ``benchmarks/results/bench_<slug>.json``
    (gitignored; the perf gate's "fresh" side).  With ``BENCH_UPDATE=1``
    in the environment it is also written to the committed baseline
    ``BENCH_<slug>.json`` at the repo root — the refresh flow after an
    intentional perf change.  Returns the last round's result object.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    for _ in range(warmup):
        run()
    reference: dict | None = None
    result = None
    for round_index in range(rounds):
        result = run()
        observed = metrics(result)
        if reference is None:
            reference = observed
        elif observed != reference:
            raise AssertionError(
                f"bench {slug!r} is not deterministic: round 0 metrics "
                f"{reference} != round {round_index} metrics {observed}"
            )
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "slug": slug,
        "rounds": rounds,
        "warmup": warmup,
        "metrics": reference,
    }
    if meta:
        record["meta"] = meta
    if profile is not None:
        record["profile"] = profile(result)
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(fresh_path(slug), "w", encoding="utf-8") as handle:
        handle.write(payload)
    if os.environ.get("BENCH_UPDATE"):
        with open(baseline_path(slug), "w", encoding="utf-8") as handle:
            handle.write(payload)
    return result


REPORTS: list[tuple[str, list[str]]] = []


def report(title: str, lines: list[str]) -> None:
    """Record an experiment table.

    Tables are (a) queued for the end-of-session terminal summary (the
    benchmarks' conftest flushes them after pytest's capture ends, so
    they land in ``bench_output.txt``) and (b) persisted to
    ``benchmarks/results/<id>.txt`` for later inspection.
    """
    REPORTS.append((title, list(lines)))
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    slug = title.split()[0].lower().strip(":")
    path = os.path.join(results_dir, f"{slug}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(title + "\n")
        handle.write("-" * 72 + "\n")
        for line in lines:
            handle.write(line + "\n")


def render_report(title: str, lines: list[str]) -> list[str]:
    """Render one report as terminal lines."""
    rendered = ["", "=" * 72, title, "-" * 72]
    rendered.extend(lines)
    rendered.append("=" * 72)
    return rendered


def format_row(*cells, widths=None) -> str:
    widths = widths or [22] * len(cells)
    return "  ".join(str(c)[: w].ljust(w) for c, w in zip(cells, widths))
