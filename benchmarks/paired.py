"""Paired base-vs-head comparison on the wall-clock benchmark.

    python benchmarks/paired.py --base <git-ref> [--workload NAME ...] [--seed N] [-n 10]

The machine drifts over tens of seconds by more than ``BENCHMARK.json``'s
bounds (``benchmarks/layers/README.md``), so one run of each commit proves
nothing.  This exports ``--base`` and copies the working tree this file
lives in (uncommitted changes included) into two sibling temporary
directories, then alternates base and head runs of the contract's own
command (each in its own tree, so ``run.py`` only ever sees that tree's
``src/``), swapping which side goes first every pair.  Both sides run from
the same kind of directory — a run from the checkout itself read
differently from an export of the same commit — and the copy is taken
once, at start, so editing the checkout mid-run moves neither side.  Per
workload and end-to-end metric it prints both medians and quartiles, head's
wins over the pairs, the ratio with its base, and a verdict by the
``choosing-metrics`` rule:

``improved``      at least ten pairs were run, head wins >= 9/10 of them
                  (ties count for neither) and the medians differ by more
                  than base's own interquartile range;
``regressed``     head's median is worse than base's by more than the
                  metric's bound (or more operations failed);
``unresolved``    base's interquartile range is wider than the bound, and
                  not every head run beats every base run;
``within bound``  otherwise.

Under each workload's table it prints, per step class (a statement
template, a scan or ingest, a replay's batch), the median over the runs of
the class's p50 latency on each side — ``run.py`` reports those on stderr —
with head's wins over the pairs and a verdict by the same rule: ``faster``
/ ``slower`` when head wins / loses >= 9/10 of at least ten pairs and the
medians differ by more than base's interquartile range, blank otherwise.
Classes that read ``slower`` are listed again under the table.  A
per-template prediction is then judged by the same alternating pairs as the
claim, not by one traced run; class verdicts never change the exit code
(one scan has two allocator modes that would flap it).

Every invocation appends one JSON line — every run made, both sides — to
``benchmarks/results/layers_trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "results" / "layers_trajectory.jsonl"
#: ``run.py``'s per-class stderr line: ``  step <class> n= 36 p50=  4.988 ms``.
STEP_LINE = re.compile(r"^\s+step (\S+)\s+n=\s*\d+ p50=\s*([0-9.]+) ms$", re.M)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(ref: str, target: Path) -> None:
    """The committed files of ``ref`` under ``target`` (nothing is left
    registered in the repository, unlike a worktree)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def copy_worktree(target: Path) -> None:
    """The working tree's tracked and untracked-but-not-ignored files."""
    listed = git("ls-files", "-co", "--exclude-standard", "-z")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the worktree
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_once(tree: Path, contract: dict, workload: str, seed: int) -> dict:
    """One run of the contract's command in ``tree``; its JSON record."""
    command = [
        *contract["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]),
        "--trace", "0",
    ]
    # The tree's own src/ only: run.py refuses any other copy of repro.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{workload} in {tree} printed no record (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        ) from None
    record["step_p50_ms"] = {
        label: float(p50) for label, p50 in STEP_LINE.findall(done.stderr)
    }
    return record


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def decided(base: list[float], head: list[float], sign: float) -> int:
    """+1 / -1 when the pairs show head better / worse than base — at least
    ten pairs, >= 9/10 of them one way (ties count for neither), medians
    further apart than base's interquartile range — and 0 when they do not.
    ``sign`` is +1 where higher reads better, -1 where lower does."""
    ahead = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    behind = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    gain = sign * (median(head) - median(base))
    base_q1, base_q3 = quartiles(base)
    if len(base) < 10 or abs(gain) <= base_q3 - base_q1:
        return 0
    if gain > 0:
        return int(ahead >= 0.9 * len(base))
    return -int(behind >= 0.9 * len(base))


def judge(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Summary and verdict for one (metric, workload) from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    base_median, head_median = median(base), median(head)
    base_q1, base_q3 = quartiles(base)
    gain = sign * (head_median - base_median)  # > 0: head reads better
    spread = base_q3 - base_q1
    allowed = bound * abs(base_median)
    clean_sweep = min(sign * h for h in head) > max(sign * b for b in base)
    if decided(base, head, sign) > 0:
        verdict = "improved"
    elif -gain > allowed:
        verdict = "regressed"
    elif spread > allowed and not clean_sweep:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base_median": base_median,
        "base_quartiles": [base_q1, base_q3],
        "head_median": head_median,
        "head_quartiles": list(quartiles(head)),
        "head_wins": wins,
        "head_losses": losses,
        "ratio": head_median / base_median,
        "verdict": verdict,
    }


def judge_step_classes(base: list[dict], head: list[dict]) -> dict[str, dict]:
    """Per step class: each side's median of the runs' p50s (ms), head's
    wins and losses over the pairs, ``faster`` / ``slower`` / blank by
    :func:`decided`, and every run's p50."""
    classes: dict[str, dict] = {}
    for label in sorted(set().union(*base, *head)):
        pairs = [
            (b[label], h[label])
            for b, h in zip(base, head)
            if label in b and label in h
        ]
        if not pairs:
            continue
        base_runs, head_runs = (list(side) for side in zip(*pairs))
        classes[label] = {
            "base_median": median(base_runs),
            "head_median": median(head_runs),
            "head_wins": sum(h < b for b, h in pairs),
            "head_losses": sum(h > b for b, h in pairs),
            "pairs": len(pairs),
            "verdict": {1: "faster", -1: "slower", 0: ""}[
                decided(base_runs, head_runs, -1.0)
            ],
            "runs": {"base": base_runs, "head": head_runs},
        }
    return classes


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-n", "--pairs", type=int, default=10)
    args = parser.parse_args()
    workloads = args.workload or names
    base_sha = git("rev-parse", args.base)

    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"base": [], "head": []} for workload in workloads
    }
    scratch = Path(tempfile.mkdtemp(prefix="paired-"))
    try:
        trees = {"base": scratch / "base", "head": scratch / "head"}
        for tree in trees.values():
            tree.mkdir()
        export_tree(base_sha, trees["base"])
        copy_worktree(trees["head"])
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in order:
                    record = run_once(trees[side], contract, workload, args.seed)
                    runs[workload][side].append(record)
                    print(
                        f"pair {pair + 1}/{args.pairs} {workload:<14} {side}: "
                        + " ".join(
                            f"{name}={metric['value']:.4g}"
                            for name, metric in record["metrics"].items()
                        ),
                        flush=True,
                    )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results: dict[str, dict] = {}
    failed_any = False
    print(
        f"\nbase {args.base} ({base_sha[:9]}) vs head, seed {args.seed}, "
        f"{args.pairs} pairs, --seconds {contract['run_seconds']}"
    )
    for workload in workloads:
        sides = runs[workload]
        failures = {
            side: sum(r["failed"] for r in sides[side])
            / max(sum(r["attempted"] for r in sides[side]), 1)
            for side in sides
        }
        correct = {side: all(r["correct"] for r in sides[side]) for side in sides}
        results[workload] = {"failed_share": failures, "correct": correct}
        print(
            f"\n{workload}: failed_share base {failures['base']:.4g} / head "
            f"{failures['head']:.4g}; correct base {correct['base']} / head "
            f"{correct['head']}"
        )
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in sides[side]]
                for side in sides
            }
            verdict = judge(
                values["base"], values["head"], metric["better"], metric["bound"]
            )
            if failures["head"] > failures["base"]:
                verdict["verdict"] = "regressed"
            failed_any |= verdict["verdict"] == "regressed"
            results[workload][name] = {**verdict, "runs": values}
            print(
                f"  {name:<16} base {verdict['base_median']:.4g} "
                f"[{verdict['base_quartiles'][0]:.4g}, {verdict['base_quartiles'][1]:.4g}]"
                f"  head {verdict['head_median']:.4g} "
                f"[{verdict['head_quartiles'][0]:.4g}, {verdict['head_quartiles'][1]:.4g}]"
                f"  wins {verdict['head_wins']}/{args.pairs}"
                f"  head/base {verdict['ratio']:.3f}"
                f"  ({metric['better']} is better, bound {metric['bound']:.0%})"
                f"  {verdict['verdict']}"
            )
        classes = judge_step_classes(
            *([r["step_p50_ms"] for r in sides[side]] for side in ("base", "head"))
        )
        results[workload]["step_p50_ms"] = classes
        for label, row in classes.items():
            print(
                f"    step {label:<26} p50 base {row['base_median']:8.3f} ms"
                f"  head {row['head_median']:8.3f} ms"
                f"  wins {row['head_wins']}/{row['pairs']}"
                f"  head/base {row['head_median'] / row['base_median']:.3f}"
                f"  {row['verdict']}".rstrip()
            )
        slower = [label for label, row in classes.items() if row["verdict"] == "slower"]
        if slower:
            print(f"    slower: {', '.join(slower)}")

    TRAJECTORY.parent.mkdir(exist_ok=True)
    with TRAJECTORY.open("a", encoding="utf-8") as handle:
        json.dump(
            {
                "at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                "base": {"ref": args.base, "sha": base_sha},
                "head": {
                    "sha": git("rev-parse", "HEAD"),
                    "dirty": bool(git("status", "--porcelain", "--", "src", "benchmarks/layers")),
                },
                "seed": args.seed,
                "pairs": args.pairs,
                "run_seconds": contract["run_seconds"],
                "results": results,
            },
            handle,
            separators=(",", ":"),
        )
        handle.write("\n")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
