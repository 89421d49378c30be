"""Repeatability check for the layered benchmark.

``repeat.py [-n 2]`` runs the whole untraced benchmark ``n`` times on
this checkout with the same seed and prints, per (workload, metric),
every value, the largest relative difference between two runs, and the
metric's bound from BENCHMARK.json; it exits non-zero when any pair of
runs disagrees by more than the bound (or any output was wrong).

``repeat.py -n 10 --vary-seed`` gives run ``i`` the seed ``seed + i`` and
applies the acceptance rule of the benchmark contract instead: the
distance between the first and third quartile of the ``n`` values, as a
share of their median, must stay within the bound (``setup_s``, whose
spread is not gated, is printed only).
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import load_contract, spawn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-n", type=int, default=2, help="runs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    contract = load_contract()
    seconds = args.seconds or float(contract["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    if args.vary_seed and args.n < 4:
        parser.error("--vary-seed needs -n 4 or more (quartiles)")

    bad = 0
    for workload in workloads:
        records = [
            spawn(workload, args.seed + i * args.vary_seed, seconds, 0)[0]
            for i in range(args.n)
        ]
        failed = sum(r["failed"] for r in records)
        bad += failed
        print(f"{workload}: {args.n} runs, {failed} failed outputs")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in records]
            if args.vary_seed:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / statistics.median(values)
                label = "iqr/median"
                gated = metric != "setup_s"
            else:
                spread = (max(values) - min(values)) / min(values)
                label = "max pair diff"
                gated = True
            verdict = "ok" if spread <= bound or not gated else "EXCEEDS BOUND"
            bad += verdict != "ok"
            print(
                f"  {metric:18s} {label} {spread:7.4f}  bound {bound:5.2f}  "
                f"{verdict:13s} " + " ".join(f"{v:.5g}" for v in values)
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
