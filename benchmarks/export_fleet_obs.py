"""Export the fleet-observability bundle for the log-analytics workload.

Runs the canned log-analysis query set (the paper's §3.1 "non-urgent"
batch class) under ``observe=True`` with a tail-based capture policy and
per-tenant spend accounting, and writes the workload-scope artifacts
into ``results/`` (or the directory given as argv[1]):

* ``fleet_statements_top.txt`` — pg_stat_statements-style top-K by $,
* ``fleet_statements.json``    — the full statement-statistics export,
* ``fleet_journal.jsonl``      — the trace-correlated query journal,
* ``fleet_ledger.jsonl``       — the metering ledger (every charge and
  void, integer nanodollars, byte-stable),
* ``fleet_spend.json``         — the per-tenant spend report with
  soft-budget status,
* ``fleet_reconciliation.json``— the billing reconciliation report,
* ``fleet_activity.json``      — the live-activity snapshot (every
  query's lifecycle record and terminal projection),
* ``fleet_projections.json``   — the estimator's projection-accuracy
  record (estimated vs. actual bill per query, aggregate MAPE),
* ``fleet_capture_flame.svg``  — the flame graph attached to one
  tail-captured query (slowest-N / $-threshold evidence).

Everything is virtual-clock-deterministic, so CI uploads the bundle and
any drift in fingerprints, plan shapes, or nanodollar attribution shows
up as a reviewable artifact diff.

**CI gate:** exits with status 1 when *any* section fails — no capture
with full profile evidence, an empty ledger or spend report, or a
billing-reconciliation invariant violation.  Every failed section is
reported, not just the first.

Usage: PYTHONPATH=../src python export_fleet_obs.py [results_dir]
"""

from __future__ import annotations

import pathlib
import sys

from repro import CapturePolicy, PixelsDB, ServiceLevel
from repro.workloads import LOGS_QUERIES

#: The fleet's billing accounts: the nightly report rotates tenants so
#: the spend report exercises per-tenant × per-level aggregation, and
#: one deliberately tiny soft budget shows the over-budget path.
FLEET_TENANTS = ("reporting", "adhoc", "ops")
FLEET_BUDGETS = {"reporting": 1e-7, "adhoc": 1.0}


def run_fleet_session() -> PixelsDB:
    """The nightly log report, submitted across all three tiers."""
    db = PixelsDB(
        observe=True,
        seed=11,
        capture=CapturePolicy(dollar_threshold=1e-7, slowest_n=4),
        tenant_budgets=dict(FLEET_BUDGETS),
    )
    db.load_logs("weblogs", num_rows=20000)
    levels = list(ServiceLevel)
    for i, sql in enumerate(LOGS_QUERIES.values()):
        db.submit(
            "weblogs",
            sql,
            levels[i % len(levels)],
            tenant=FLEET_TENANTS[i % len(FLEET_TENANTS)],
        )
        db.run(30.0)
    # A second pass of a few statements at a different tier, so the
    # store shows per-(fingerprint, level) aggregation with calls > 1.
    for sql in list(LOGS_QUERIES.values())[:3]:
        db.submit("weblogs", sql, ServiceLevel.BEST_EFFORT, tenant="adhoc")
    db.run_to_completion()
    return db


def export(results_dir: pathlib.Path) -> int:
    db = run_fleet_session()
    results_dir.mkdir(parents=True, exist_ok=True)

    failures: list[str] = []

    captures = db.obs.journal.captures()
    evidenced = [c for c in captures if "flamegraph_svg" in c]
    reconciliation = db.reconcile()
    outputs = {
        "fleet_statements_top.txt": db.statements_top(10, "dollars"),
        "fleet_statements.json": db.export("statements"),
        "fleet_journal.jsonl": db.export("journal"),
        "fleet_ledger.jsonl": db.export("ledger"),
        "fleet_spend.json": db.export("spend"),
        "fleet_reconciliation.json": reconciliation.export_json(),
        "fleet_activity.json": db.export("activity"),
        "fleet_projections.json": db.export("projections"),
    }
    if evidenced:
        outputs["fleet_capture_flame.svg"] = evidenced[0]["flamegraph_svg"]
    for filename, payload in outputs.items():
        (results_dir / filename).write_text(payload, encoding="utf-8")
        print(f"wrote {results_dir / filename}")

    for entry in db.obs.statements.top(5, by="dollars"):
        print(
            f"{entry.fingerprint}  {entry.level:<12} "
            f"tenant={entry.tenant:<10} calls={entry.calls} "
            f"billed=${entry.nanodollars / 1e9:.9f}"
        )
    print(
        f"journal: {len(db.obs.journal.records())} events, "
        f"{len(captures)} captures ({len(evidenced)} with profile evidence)"
    )
    spend = db.obs.spend.report()
    for row in spend["tenants"]:
        budget = row["budget_dollars"]
        print(
            f"spend: {row['tenant']:<10} net={row['nanodollars']} nano$ "
            f"budget={budget if budget is not None else '-'} "
            f"{'OVER BUDGET' if row['over_budget'] else ''}".rstrip()
        )
    print(reconciliation.render())

    # -- section gates: collect every failure, fail on any ----------------
    if not evidenced:
        failures.append(
            "no journal capture carries profile evidence — "
            "the tail-based capture path is dead"
        )
    if not db.obs.ledger.events():
        failures.append("the metering ledger is empty — billing left no trail")
    if not spend["tenants"]:
        failures.append("the spend report has no tenants — tenant threading broke")
    if "reporting" not in {row["tenant"] for row in spend["tenants"]}:
        failures.append("tenant 'reporting' missing from the spend report")
    if not reconciliation.ok:
        failures.append(
            "billing reconciliation violated "
            f"{len(reconciliation.violations)} invariant(s)"
        )
    activity = db.obs.activity.snapshot()
    projections = db.obs.activity.projection_report()
    print(
        f"activity: {len(activity.get('queries', []))} queries tracked, "
        f"states {activity.get('states', {})}"
    )
    print(
        f"projections: {projections['queries']} accuracy records, "
        f"MAPE {projections['mape']:.9f}"
    )
    if not activity.get("queries"):
        failures.append(
            "the activity snapshot tracked no queries — lifecycle wiring broke"
        )
    elif set(activity.get("states", {})) - {"billed"}:
        failures.append(
            "a query ended in a non-billed state after run_to_completion: "
            f"{activity['states']}"
        )
    if projections["queries"] == 0:
        failures.append(
            "no projection-accuracy records — the estimator never scored"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "OK: capture evidence, metering ledger, tenant spend, billing "
        "reconciliation, live activity, and projection accuracy all live"
    )
    return 0


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    sys.exit(export(target))
