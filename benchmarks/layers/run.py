"""The repo's wall-clock benchmark — see README.md in this directory.

Two ways to run it::

    python3 benchmarks/layers/run.py [--seed N] [--traced]
    python3 benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1

The first runs the four workloads one after another, each in a fresh
subprocess, and prints every metric by name with unit and sample count
(``--traced`` adds the traced run and the layer-separation report).  The
second is one workload in this process; its last stdout line is the JSON
record BENCHMARK.json's driver reads.  ``--trace 0`` yields the
end-to-end metrics, ``--trace 1`` the per-layer ones — end-to-end
numbers are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")
SETUPS = 3  # set-ups per run; setup_s is their median
WORKLOAD_NAMES = ("engine_mix", "logs_storage", "fleet_sched", "hybrid_replay")


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and refuse any other
    copy of the program (an installed one would silently measure the
    wrong code)."""
    os.environ.pop("REPRO_WORKERS", None)  # the program's own default
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {source}")


def calibrate() -> float:
    """A fixed numpy + pure-Python loop, in ms.  Printed beside the
    results so a slow machine is visible; never used to rescale them."""
    import numpy as np

    started = perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    column = np.arange(200_000, dtype=np.float64)[::-1]
    for _ in range(10):
        np.sort(column * 1.0001).sum()
    return (perf_counter() - started) * 1e3


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1)]


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload in this process ---------------------------------------------


def set_up(name: str, seed: int, golden: dict):
    """``SETUPS`` full set-ups (data generation + load + dataset check +
    warm-up), keeping the last; returns (workload, seconds of each)."""
    from workloads import WORKLOADS

    seconds = []
    workload = None
    for _ in range(SETUPS):
        del workload
        gc.collect()
        started = thread_time()
        workload = WORKLOADS[name](seed, golden)
        workload.setup()
        seconds.append(thread_time() - started)
    return workload, seconds


def keep_going(started: float, rounds_done: int, seconds: float) -> bool:
    """Whether to start another round: rounds are never cut short, so stop
    once the next one would overshoot ``seconds`` by more than half."""
    elapsed = perf_counter() - started
    return rounds_done == 0 or elapsed * (1 + 0.5 / rounds_done) < seconds


def run_rounds(workload, first_index: int, seconds: float) -> list:
    """Whole rounds for about ``seconds`` (at least one)."""
    rounds = []
    started = perf_counter()
    while keep_going(started, len(rounds), seconds):
        rounds.append(workload.round(first_index + len(rounds)))
    return rounds


def wall_over_cpu(rounds: list) -> float:
    """Wall time over client-thread CPU time of the timed calls: 1.0 on a
    quiet machine while the program neither waits nor runs workers."""
    return sum(r.real_ns for r in rounds) / 1e9 / sum(r.seconds for r in rounds)


def step_classes(rounds: list) -> dict[str, list[float]]:
    classes: dict[str, list[float]] = {}
    for round_ in rounds:
        for label, nanos in round_.steps:
            classes.setdefault(label, []).append(nanos / 1e6)
    return classes


def end_to_end(rounds: list, setups: list[float]) -> dict[str, tuple[float, str]]:
    classes = step_classes(rounds)
    steps = [ms for values in classes.values() for ms in values]
    medians = [statistics.median(values) for values in classes.values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (
            statistics.median(r.ops / r.seconds for r in rounds),
            "1/s",
        ),
        "step_ms_geomean": (
            math.exp(statistics.fmean(math.log(ms) for ms in medians)),
            "ms",
        ),
        "step_ms_p95": (percentile(steps, 0.95), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
    }


def per_layer(workload, args, calib_before: float):
    """The traced run.  Traced and untraced rounds alternate over the same
    round indexes, so machine drift hits both alike: the untraced twin of
    each round gives the tracing overhead and the per-template rows.  The
    first traced round always follows the same warm-up, which is what
    makes its exact counts repeat from run to run."""
    import layers
    from trace import Recorder

    first = workload.warmup_rounds
    recorder = Recorder()
    traced, reference = [], []
    started = perf_counter()
    while keep_going(started, len(traced), args.seconds):
        index = first + len(traced)
        layers.install(recorder)
        workload.recorder = recorder
        try:
            traced.append(workload.round(index))
        finally:
            workload.recorder = None
            recorder.uninstall()
        if len(traced) == 1:
            first_round_spans = recorder.span_count()
        reference.append(workload.round(index))
    spans = recorder.arrays()
    metrics = layers.layer_metrics(
        spans, recorder.counts, traced[0].counts, len(traced)
    )
    metrics.update(twin_metrics(workload, traced, reference))
    metrics["bench.calib_ms"] = (calib_before + calibrate()) / 2
    metrics["storage.stored_bytes_per_user_byte"] = stored_per_user_byte(workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    # The span file holds the first traced round only (a whole fleet
    # replay is ~300 k spans); the metrics cover every traced round.
    recorder.dump(
        os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
        first_round_spans,
        {
            "workload": workload.name,
            "seed": args.seed,
            "traced_rounds": len(traced),
            "hook_counts": recorder.counts,
            "metrics": metrics,
        },
    )
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    failed = sum(r.failed for r in traced + reference)
    attempted = sum(r.attempted for r in traced + reference)
    return {name: (metrics[name], units[name]) for name in units}, attempted, failed


def twin_metrics(workload, traced: list, reference: list) -> dict[str, float]:
    """The per-layer rows that need no spans, from the untraced twins: the
    tracing overhead, per-template and per-storage-op medians, and (on
    ``fleet_sched``) what observing costs."""
    import layers
    from statements import SCAN_TEMPLATES

    classes = step_classes(reference)

    def p50(*labels: str) -> float:
        values = [ms for label in labels for ms in classes.get(label, ())]
        return statistics.median(values) if values else 0.0

    metrics = {
        "bench.trace_overhead_ratio": statistics.median(
            with_.seconds / without.seconds
            for with_, without in zip(traced, reference)
        ),
        "bench.wall_over_cpu": wall_over_cpu(reference),
        "storage.op.ingest_ms_p50": p50("ingest"),
        "obs.on_off_wall_ratio": 0.0,
    }
    for kind in ("cold", "warm"):
        metrics[f"storage.op.scan_{kind}_ms_p50"] = p50(
            *(f"{template}.{kind}" for template in SCAN_TEMPLATES)
        )
    for template in layers.ENGINE_TEMPLATES:
        metrics[f"engine.tpl.{template}_ms_p50"] = (
            p50(template) if workload.name == "engine_mix" else 0.0
        )
    if workload.name == "fleet_sched":
        # One more untraced round with every sink disabled, against the
        # untraced twins (which ran observed).
        workload.observe = False
        unobserved = workload.round(workload.warmup_rounds)
        metrics["obs.on_off_wall_ratio"] = (
            statistics.median(r.seconds for r in reference) / unobserved.seconds
        )
    return metrics


def stored_per_user_byte(workload) -> float:
    """Bytes in the object store per byte of user data, from the catalog's
    own statistics and each table's in-memory size."""
    from repro.storage import TableReader

    stored = user = 0
    for schema in workload.catalog.schema_names:
        for table in workload.catalog.schema(schema).tables.values():
            stored += table.size_bytes
            data = TableReader(workload.store, table.bucket, table.prefix).scan().data
            user += data.nbytes()
    return stored / user if user else 0.0


def run_one(args) -> int:
    golden = load_golden().get(args.workload, {})
    if args.selfcheck:
        # Falsifiability: with one golden digest corrupted in memory the
        # run must report failures and exit non-zero.
        prefix = min(k for k in golden if k != "dataset").split("/")[0]
        for key in golden:
            if key.startswith(prefix + "/"):
                golden[key] = ["corrupted"]
        print(f"selfcheck: corrupted golden entries {prefix}/*", file=sys.stderr)
    calib_before = calibrate()
    workload, setups = set_up(args.workload, args.seed, golden)
    if args.trace:
        metrics, attempted, failed = per_layer(workload, args, calib_before)
    else:
        rounds = run_rounds(workload, workload.warmup_rounds, args.seconds)
        metrics = end_to_end(rounds, setups)
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        describe(workload, rounds, setups, calib_before)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def describe(workload, rounds, setups, calib_before: float) -> None:
    """Human-readable detail on stderr: sample counts, quartiles, and the
    outputs checked (the digests, for seeds golden.json does not cover)."""
    rates = [r.ops / r.seconds for r in rounds]
    q1, q2, q3 = quartiles(rates)
    classes = step_classes(rounds)
    lines = [
        f"{workload.name}: seed {workload.seed}, {len(rounds)} timed rounds, "
        f"{sum(r.ops for r in rounds)} ops, "
        f"{sum(len(v) for v in classes.values())} timed steps",
        f"  ops_per_s quartiles over rounds: {q1:.1f} / {q2:.1f} / {q3:.1f}",
        "  setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups),
        f"  calib_ms before/after: {calib_before:.1f} / {calibrate():.1f}; "
        f"wall/cpu of the timed calls: {wall_over_cpu(rounds):.3f}",
    ]
    for label in sorted(classes):
        values = classes[label]
        lines.append(
            f"  step {label:28s} n={len(values):4d} "
            f"p50={statistics.median(values):9.3f} ms"
        )
    uncovered = sorted(workload.seen)
    if uncovered:
        lines.append(
            f"  {len(uncovered)} outputs not in golden.json, checked for "
            "run-to-run equality only:"
        )
        lines += [f"    {key}: {workload.seen[key]}" for key in uncovered]
    print("\n".join(lines), file=sys.stderr)


# -- golden file --------------------------------------------------------------


def update_golden(names) -> int:
    from workloads import WORKLOADS

    golden = load_golden() if os.path.exists(GOLDEN_PATH) else {}
    for name in names:
        workload = WORKLOADS[name](1, {})
        workload.load()
        golden[name] = workload.golden_entries()
        print(f"{name}: {len(golden[name])} golden entries", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# -- all workloads, each in a fresh subprocess --------------------------------


def spawn(
    name: str, seed: int, seconds: float, trace: int, selfcheck: bool = False
) -> tuple[dict, str]:
    """One workload in a fresh process; returns (record, its stderr)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--selfcheck"] if selfcheck else [])
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result\n{done.stderr}")
    return json.loads(lines[-1]), done.stderr


def run_all(args) -> int:
    """Untraced benchmark (and, with --traced, the traced one) over every
    workload, sequentially; returns non-zero if any output was wrong."""
    names = ("engine_mix",) if args.selfcheck else WORKLOAD_NAMES
    failed = 0
    layer_rows: dict[str, dict] = {}
    for name in names:
        record, detail = spawn(name, args.seed, args.seconds, 0, args.selfcheck)
        failed += record["failed"]
        print(detail, end="")
        print_record(name, record)
        if args.traced:
            record, _ = spawn(name, args.seed, args.seconds, 1)
            failed += record["failed"]
            print_record(name, record)
            layer_rows[name] = {k: v["value"] for k, v in record["metrics"].items()}
    if layer_rows:
        separation_report(layer_rows)
    return 1 if failed else 0


def print_record(name: str, record: dict) -> None:
    share = record["failed"] / record["attempted"]
    print(f"{name}: failed_share {share:.6f} ({record['failed']}/{record['attempted']})")
    absent = 0
    for metric, cell in record["metrics"].items():
        if cell["value"] == 0:
            absent += 1  # a layer this workload does not reach
            continue
        print(f"  {metric:44s} {cell['value']:16.6g} {cell['unit']}")
    if absent:
        print(f"  ({absent} metrics of layers absent from {name} are 0)")


def separation_report(rows: dict[str, dict]) -> None:
    """The per-workload ``*_self_share`` matrix, with a warning for each
    prediction of the Workloads table that no longer holds."""
    import layers

    names = list(rows)
    print("\nlayer separation (self time / traced wall)")
    print(f"  {'layer':16s}" + "".join(f"{name:>15s}" for name in names))
    for layer in [*layers.LAYER_PREFIXES, "bench"]:
        key = "bench.untraced_share" if layer == "bench" else f"{layer}.self_share"
        print(
            f"  {layer:16s}"
            + "".join(f"{rows[name][key]:15.3f}" for name in names)
        )
    for name in names:
        claim, holds = layers.PREDICTIONS[name]
        verdict = "holds" if holds(rows[name]) else "WARNING: does not hold"
        print(f"  {name}: {claim} — {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    import_program()
    if args.update_golden:
        return update_golden([args.workload] if args.workload else WORKLOAD_NAMES)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
