"""Export a demo session's operator dashboard and SLO artifacts.

Runs a small multi-level session with the observability stack on and
writes the full operator bundle into ``results/`` (or the directory
given as argv[1]):

* ``demo_dashboard.html`` — the self-contained static dashboard,
* ``demo_dashboard.txt``  — the console rendering,
* ``demo_timeseries.jsonl`` / ``demo_alerts.jsonl`` /
  ``demo_audit.jsonl`` / ``demo_slo.json`` — the raw exports.

Everything is virtual-clock-deterministic, so CI uploads the HTML as an
artifact and a dashboard-shape change shows up as a reviewable diff.

**CI gate:** exits with status 1 if any immediate-level query violated
its deadline — the paper's §3.2(1) "guaranteed immediate execution"
promise, checked on every push.

Usage: PYTHONPATH=../src python export_dashboard.py [results_dir]
"""

from __future__ import annotations

import pathlib
import sys

from repro import PixelsDB, ServiceLevel


def run_demo_session() -> PixelsDB:
    """A few minutes of mixed-level traffic against TPC-H data."""
    db = PixelsDB(observe=True, seed=5, scrape_interval_s=15.0)
    db.load_tpch("tpch", scale=0.01)
    mix = [
        ("SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE),
        (
            "SELECT c_mktsegment, COUNT(*) FROM customer "
            "GROUP BY c_mktsegment",
            ServiceLevel.RELAXED,
        ),
        ("SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT),
        (
            "SELECT o_orderstatus, COUNT(*) FROM orders "
            "GROUP BY o_orderstatus",
            ServiceLevel.IMMEDIATE,
        ),
        ("SELECT COUNT(*) FROM supplier", ServiceLevel.RELAXED),
        (
            "SELECT l_returnflag, COUNT(*) FROM lineitem "
            "GROUP BY l_returnflag",
            ServiceLevel.BEST_EFFORT,
        ),
    ]
    # Spread submissions over simulated minutes so the scrape loop sees
    # the cluster's state evolve rather than one instantaneous burst.
    for sql, level in mix:
        db.submit("tpch", sql, level)
        db.run(45.0)
    db.run_to_completion()
    return db


def export(results_dir: pathlib.Path) -> int:
    db = run_demo_session()
    results_dir.mkdir(parents=True, exist_ok=True)
    outputs = {
        "demo_dashboard.html": db.dashboard_html("PixelsDB demo session"),
        "demo_dashboard.txt": db.dashboard_text("PixelsDB demo session"),
        "demo_timeseries.jsonl": db.export("timeseries"),
        "demo_alerts.jsonl": db.export("alerts"),
        "demo_audit.jsonl": db.export("autoscaler_audit"),
        "demo_slo.json": db.export("slo"),
    }
    for filename, payload in outputs.items():
        (results_dir / filename).write_text(payload, encoding="utf-8")
        print(f"wrote {results_dir / filename}")

    report = db.obs.slo.snapshot()["levels"]
    for name in sorted(report):
        level = report[name]
        compliance = level["compliance"]
        rendered = "-" if compliance is None else f"{100 * compliance:.1f}%"
        print(
            f"{name:<12} queries={level['queries']} "
            f"violations={level['violations']} compliance={rendered}"
        )

    immediate = report.get("immediate", {})
    if immediate.get("violations", 0) > 0:
        print(
            "FAIL: immediate-level deadline violations detected "
            f"({immediate['violations']} of {immediate['queries']} queries) "
            "— §3.2(1) guarantees immediate execution",
            file=sys.stderr,
        )
        return 1
    print("OK: no immediate-level deadline violations")
    return 0


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    sys.exit(export(target))
