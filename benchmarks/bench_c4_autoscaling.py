"""Experiment C4 — watermark auto-scaling on a bursty workload (§3.1).

Paper claims: the coordinator scales out when query concurrency exceeds
the high watermark (e.g. 5) and scales in, lazily, when the average
concurrency over a period falls below the low watermark (e.g. 0.75);
this is "effective for typical analytical workloads such as TPC-H".

The bench replays a bursty TPC-H arrival process with exactly those
watermarks and checks the scaling trace: scale-out events follow bursts,
scale-in events follow quiet periods, and the cluster returns to its
minimum size by the end.
"""

import numpy as np
import pytest

from common import (
    export_ledger_audit,
    HEAVY_SQL,
    bench_record,
    format_row,
    report,
    tpch_environment,
    workload_metrics,
    write_observability_artifacts,
)
from repro.baselines import run_workload
from repro.baselines.runner import Submission
from repro.core import ServiceLevel
from repro.sim.trace import downsample
from repro.turbo import TurboConfig
from repro.workloads import bursty_arrivals


def run_experiment():
    store, catalog = tpch_environment()
    rng = np.random.default_rng(4)
    arrivals = bursty_arrivals(
        rng, duration_s=3600, base_rate_per_s=0.01,
        burst_rate_per_s=0.8, burst_every_s=1200, burst_length_s=120,
    )
    submissions = [
        Submission(time, HEAVY_SQL, ServiceLevel.RELAXED) for time in arrivals
    ]
    config = TurboConfig.experiment()
    result = run_workload(
        submissions, store, catalog, "tpch", config, observe=True
    )
    return config, result


def test_c4_autoscaling(benchmark):
    config, result = benchmark.pedantic(
        lambda: bench_record(
            "c4", run_experiment, lambda pair: workload_metrics(pair[1])
        ),
        rounds=1, iterations=1,
    )
    cluster = result.coordinator.vm_cluster
    trace = result.coordinator.trace

    worker_series = trace.series("vm.workers")
    peak_workers = max(point.value for point in worker_series)
    final_workers = worker_series[-1].value
    scale_out_times = trace.times("vm.scale_out")
    scale_in_times = trace.times("vm.scale_in")

    lines = [
        format_row("quantity", "paper", "measured"),
        format_row("high watermark", "5", f"{config.vm.high_watermark}"),
        format_row("low watermark", "0.75", f"{config.vm.low_watermark}"),
        format_row("scale-out events", ">=1 per burst", f"{cluster.scale_out_events}"),
        format_row("scale-in events", ">=1 per quiet period", f"{cluster.scale_in_events}"),
        format_row("peak workers", "> min (1)", f"{int(peak_workers)}"),
        format_row("final workers", "back to min", f"{int(final_workers)}"),
        "",
        f"scale-out at: {[f'{t:.0f}s' for t in scale_out_times]}",
        f"scale-in  at: {[f'{t:.0f}s' for t in scale_in_times]}",
        "",
        "workers over time (120 s buckets):",
    ]
    for point in downsample(worker_series, 120.0):
        bar = "#" * int(point.value)
        lines.append(f"  t={point.time:6.0f}s  {bar} {int(point.value)}")
    audit = cluster.audit_log
    lines += ["", "autoscaler decision audit (first 8):"]
    for decision in audit[:8]:
        lines.append(
            f"  t={decision.time:6.0f}s {decision.action:<10} "
            f"trigger={decision.trigger_value:.2f} vs {decision.threshold:g}  "
            f"workers {decision.workers_before}{decision.delta:+d} "
            f"-> {decision.workers_target}"
        )
    export_ledger_audit("c4", result)
    paths = write_observability_artifacts(
        "c4", result, "C4 watermark auto-scaling"
    )
    lines += ["", f"observability artifacts: {sorted(paths)}"]
    report("C4  Watermark auto-scaling on a bursty workload, paper §3.1", lines)

    assert cluster.scale_out_events >= 2  # bursts at ~1200s and ~2400s
    assert cluster.scale_in_events >= 1
    assert peak_workers > 1
    assert final_workers == config.vm.min_workers
    assert all(q.status.value == "finished" for q in result.queries)
    # Scale-outs happen during/after bursts, not during the quiet start.
    assert min(scale_out_times) >= 1200.0
    # The audit log is 1:1 with the watermark-crossing counter.
    crossings = result.obs.metrics.get("pixels_vm_watermark_crossings_total")
    assert len([d for d in audit if d.action == "scale_out"]) == crossings.value(
        watermark="high"
    )
    assert len([d for d in audit if d.action == "scale_in"]) == crossings.value(
        watermark="low"
    )
    # The scrape loop sampled worker counts on its fixed cadence too.
    ts_workers = result.obs.timeseries.series("pixels_vm_workers")
    assert max(v for _, v in ts_workers) == peak_workers
