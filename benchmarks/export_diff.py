"""Byte-compare every observability export of a base commit and of head.

    python benchmarks/export_diff.py --base <git-ref>

"Every export byte-identical" is the fence behind each refactor of the
observability layer, and ``tests/test_trace_determinism.py`` can only
compare a tree with itself.  This exports ``--base`` with
:func:`paired.export_tree`, copies the working tree next to it with
:func:`paired.copy_worktree` (so head includes uncommitted changes and
nothing is written into the checkout), and in each tree runs, from an
emptied ``benchmarks/results/``:

* ``export_trace.py``, ``export_dashboard.py``, ``export_fleet_obs.py``
  and ``export_faults.py`` (crashes, retries, give-ups, in-flight
  cancels, shared batches) — each tree's own copy, and **head's copy
  where the base has none**, so a scenario can land in the very PR
  whose refactor it fences, and a change to the public API the
  exporters read lands together with the exporters that read it;
* the observed benches ``bench_c1``, ``c2``, ``c4``, ``c5`` and ``c9``
  (each tree's own).

It then compares, byte for byte, every file the two runs left behind —
ledgers, journals, statement / SLO / spend / activity / projection
reports, time series, alerts, audits, reconciliations, dashboards,
folded stacks, flame graphs, traces, metrics expositions and the
benches' text reports.  ``bench_*.json`` records are skipped:
``perf_gate.py`` already holds their deterministic blocks to the
committed baselines (and ``bench_engine_*`` carry machine-dependent
``meta``).

Exit status 1 lists the files that differ or exist on one side only,
or says that nothing was compared.  The summary also counts compared
artifacts that are empty on both sides, so a match between two empty
files is visible rather than counted as evidence.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from paired import copy_worktree, export_tree, git

EXPORTS = (
    "export_trace.py",
    "export_dashboard.py",
    "export_fleet_obs.py",
    "export_faults.py",
)
OBSERVED_BENCHES = ("c1", "c2", "c4", "c5", "c9")


def run_exports(tree: Path) -> Path:
    """Run every exporter and observed bench in ``tree``; the directory
    holding what they wrote."""
    benchmarks = tree / "benchmarks"
    results = benchmarks / "results"
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir()
    # The tree's own src/ only, as paired.py does.
    env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{benchmarks}"}
    benches = [
        str(path)
        for slug in OBSERVED_BENCHES
        for path in sorted(benchmarks.glob(f"bench_{slug}_*.py"))
    ]
    commands = [[sys.executable, script] for script in EXPORTS]
    commands.append(
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider", *benches]
    )
    for command in commands:
        done = subprocess.run(
            command, cwd=benchmarks, env=env, capture_output=True, text=True
        )
        if done.returncode != 0:
            raise SystemExit(
                f"{' '.join(command[1:])} failed in {tree} "
                f"(exit {done.returncode}):\n"
                f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
            )
    return results


def artifacts(results: Path) -> set[str]:
    return {
        path.name
        for path in results.iterdir()
        if path.is_file() and not path.match("bench_*.json")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    args = parser.parse_args()
    base_sha = git("rev-parse", args.base)
    scratch = Path(tempfile.mkdtemp(prefix="export-diff-"))
    try:
        trees = {"base": scratch / "base", "head": scratch / "head"}
        for tree in trees.values():
            tree.mkdir()
        export_tree(base_sha, trees["base"])
        copy_worktree(trees["head"])
        for script in EXPORTS:
            if not (trees["base"] / "benchmarks" / script).exists():
                shutil.copy2(
                    trees["head"] / "benchmarks" / script,
                    trees["base"] / "benchmarks" / script,
                )
        results = {}
        for side, tree in trees.items():
            print(f"{side}: running exports and observed benches ...", flush=True)
            results[side] = run_exports(tree)
        names = {side: artifacts(path) for side, path in results.items()}
        one_sided = sorted(names["base"] ^ names["head"])
        common = sorted(names["base"] & names["head"])
        _, differing, errors = filecmp.cmpfiles(
            results["base"], results["head"], common, shallow=False
        )
        empty = [
            name
            for name in common
            if all((path / name).stat().st_size == 0 for path in results.values())
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"base {args.base} ({base_sha[:9]}) vs head: {len(common)} artifacts "
        f"compared ({len(empty)} empty on both sides), "
        f"{len(differing) + len(errors)} differ, "
        f"{len(one_sided)} on one side only"
    )
    for name in empty:
        print(f"  empty on both sides: {name}")
    for name in differing + errors:
        print(f"  differs: {name}")
    for name in one_sided:
        side = "base" if name in names["base"] else "head"
        print(f"  only in {side}: {name}")
    if not common:
        print("  nothing was compared")
    return 1 if differing or errors or one_sided or not common else 0


if __name__ == "__main__":
    sys.exit(main())
