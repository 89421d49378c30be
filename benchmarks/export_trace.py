"""Export a demo session's span timelines and profiles, deterministically.

Runs a small three-level session against a TPC-H-style dataset with
observability on and writes its ``traces`` export to the given
path (default ``results/demo_traces.json``).  For the demo GROUP BY
query it also writes the profiler's exports next to the traces: folded
stacks (``demo_profile_time.folded``, ``demo_profile_dollars.folded``)
plus the two flame-graph SVGs.  Because span timestamps come from the
virtual clock and span ids from a counter, every output is
byte-identical across same-seed runs — CI uploads them as artifacts so
trace- and attribution-shape changes show up as reviewable diffs.

Usage: PYTHONPATH=../src python export_trace.py [output.json]
"""

from __future__ import annotations

import pathlib
import sys

from repro import PixelsDB, ServiceLevel


def export(path: pathlib.Path) -> None:
    db = PixelsDB(observe=True, seed=5)
    db.load_tpch("tpch", scale=0.01)
    db.submit("tpch", "SELECT COUNT(*) FROM nation", ServiceLevel.IMMEDIATE)
    demo = db.submit(
        "tpch",
        "SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
        ServiceLevel.RELAXED,
    )
    db.submit(
        "tpch", "SELECT COUNT(*) FROM region", ServiceLevel.BEST_EFFORT
    )
    db.run_to_completion()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(db.export("traces"))
    trace_count = len(db.obs.tracer.trace_ids())
    print(f"wrote {trace_count} traces to {path}")

    profile = db.profile("tpch", demo.query_id)
    exports = {
        "demo_profile_time.folded": profile.folded_time(),
        "demo_profile_dollars.folded": profile.folded_dollars(),
        "demo_profile_time.svg": profile.flamegraph_time_svg(),
        "demo_profile_dollars.svg": profile.flamegraph_dollars_svg(),
    }
    for filename, payload in exports.items():
        (path.parent / filename).write_text(payload)
    print(
        f"wrote profile exports for {demo.query_id} "
        f"(billed {profile.billed_nanodollars} nano$) to {path.parent}"
    )


if __name__ == "__main__":
    target = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else "results/demo_traces.json"
    )
    export(target)
