"""The CI perf gate: fresh bench records vs committed baselines.

Every bench routed through :func:`common.bench_record` writes a fresh
record to ``benchmarks/results/bench_<slug>.json``; the committed
baseline lives at ``BENCH_<slug>.json`` in the repo root.  This script
compares the two: the **deterministic metrics** (logical bytes scanned,
GET counts, billed $, finished queries, simulated seconds) must match
**exactly** — they are simulation outputs, so any drift is a real
behavior change, not noise.  Wall time is not this gate's business:
``benchmarks/layers/run.py`` and ``benchmarks/paired.py`` measure it,
base against head on one machine.

Exit status is non-zero on any violation.  After an *intentional* perf
change, refresh the baselines with ``BENCH_UPDATE=1`` (see
``bench_record``) or ``python benchmarks/perf_gate.py --update`` and
commit the new ``BENCH_*.json``.

``--explain`` adds root-cause lines for every violated slug: when both
records carry a ``"profile"`` section (per-operator resource totals —
see ``common.workload_profile``), the profile diff names the operator
and the resource (bandwidth/requests/compute/pricing) that moved;
otherwise the changed metric names themselves are classified by the
resource they implicate.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Relative tolerance for float-valued deterministic metrics: covers
#: serialization round-trip only, not behavior drift.
FLOAT_RTOL = 1e-9


def baseline_path(slug: str) -> str:
    return os.path.join(_REPO_ROOT, f"BENCH_{slug}.json")


def fresh_path(slug: str) -> str:
    return os.path.join(_RESULTS_DIR, f"bench_{slug}.json")


def discover_slugs() -> list[str]:
    """Slugs of every committed ``BENCH_<slug>.json`` baseline."""
    slugs = []
    for path in sorted(glob.glob(os.path.join(_REPO_ROOT, "BENCH_*.json"))):
        name = os.path.basename(path)
        slugs.append(name[len("BENCH_"):-len(".json")])
    return slugs


def _values_match(baseline, fresh) -> bool:
    if isinstance(baseline, bool) or isinstance(fresh, bool):
        return baseline == fresh
    if isinstance(baseline, (int, float)) and isinstance(fresh, (int, float)):
        if isinstance(baseline, int) and isinstance(fresh, int):
            return baseline == fresh
        return math.isclose(baseline, fresh, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return baseline == fresh


def compare_records(baseline: dict, fresh: dict) -> list[str]:
    """Violations (empty list = pass) between one baseline/fresh pair.

    Deterministic metrics: exact (ints) or FLOAT_RTOL (floats).
    """
    slug = baseline.get("slug", "?")
    violations: list[str] = []
    if baseline.get("schema_version") != fresh.get("schema_version"):
        return [
            f"{slug}: schema_version mismatch "
            f"(baseline {baseline.get('schema_version')}, "
            f"fresh {fresh.get('schema_version')}) — refresh the baseline"
        ]
    base_metrics = baseline.get("metrics", {}) or {}
    fresh_metrics = fresh.get("metrics", {}) or {}
    for name in sorted(base_metrics):
        if name not in fresh_metrics:
            violations.append(f"{slug}: metric {name!r} missing from fresh run")
            continue
        if not _values_match(base_metrics[name], fresh_metrics[name]):
            violations.append(
                f"{slug}: {name} regressed/changed: "
                f"baseline {base_metrics[name]!r} != fresh {fresh_metrics[name]!r}"
            )
    for name in sorted(set(fresh_metrics) - set(base_metrics)):
        violations.append(
            f"{slug}: new metric {name!r} not in baseline — refresh the baseline"
        )
    return violations


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- root-causing (--explain) ---------------------------------------------------

#: Metric-name needles → the resource a drift in that metric implicates
#: (the fallback classification when records carry no profile section).
_METRIC_RESOURCES = (
    ("bytes", "bandwidth"),
    ("get", "requests"),
    ("seconds", "compute"),
    ("dollar", "pricing"),
)


def _metric_resource(name: str) -> str:
    lowered = name.lower()
    for needle, resource in _METRIC_RESOURCES:
        if needle in lowered:
            return resource
    return "unknown"


def _import_profdiff():
    """Import repro.obs.profdiff, falling back to the source tree when
    the package is not installed (plain checkouts, some CI stages)."""
    try:
        from repro.obs import profdiff
    except ImportError:
        sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
        from repro.obs import profdiff
    return profdiff


def explain_records(baseline: dict, fresh: dict, limit: int = 5) -> list[str]:
    """Root-cause lines for one failed baseline comparison.

    With ``"profile"`` sections on both sides, the per-operator diff
    says which operator regressed in which resource; without them, the
    changed metrics are classified by name.  Empty when nothing moved.
    """
    slug = baseline.get("slug", "?")
    base_profile = baseline.get("profile")
    fresh_profile = fresh.get("profile")
    if base_profile and fresh_profile:
        profdiff = _import_profdiff()
        deltas = profdiff.diff_operator_tables(base_profile, fresh_profile)
        if deltas:
            rendered = profdiff.render_diff(
                deltas, limit=limit, prefix=f"{slug}: "
            )
            return rendered.splitlines()
    lines: list[str] = []
    base_metrics = baseline.get("metrics", {}) or {}
    fresh_metrics = fresh.get("metrics", {}) or {}
    for name in sorted(set(base_metrics) | set(fresh_metrics)):
        base_value = base_metrics.get(name)
        fresh_value = fresh_metrics.get(name)
        if not _values_match(base_value, fresh_value):
            lines.append(
                f"{slug}: {name} implicates {_metric_resource(name)}: "
                f"baseline {base_value!r} -> fresh {fresh_value!r}"
            )
    return lines[:limit]


def run_gate(
    slugs: list[str] | None = None, update: bool = False
) -> tuple[list[str], list[str]]:
    """Gate every requested slug; returns (checked, violations)."""
    slugs = slugs if slugs else discover_slugs()
    checked: list[str] = []
    violations: list[str] = []
    for slug in slugs:
        base = baseline_path(slug)
        fresh = fresh_path(slug)
        if not os.path.exists(fresh):
            violations.append(
                f"{slug}: no fresh record at {os.path.relpath(fresh, _REPO_ROOT)}"
                " — did the bench run?"
            )
            continue
        if update:
            shutil.copyfile(fresh, base)
            checked.append(slug)
            continue
        if not os.path.exists(base):
            violations.append(
                f"{slug}: no committed baseline BENCH_{slug}.json — run with"
                " --update (or BENCH_UPDATE=1) and commit it"
            )
            continue
        checked.append(slug)
        violations.extend(compare_records(_load(base), _load(fresh)))
    return checked, violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "slugs", nargs="*",
        help="slugs to gate (default: every committed BENCH_*.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="copy fresh records over the committed baselines instead of gating",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="on failure, print per-slug root-cause lines from the records'"
             " profile sections (operator + resource)",
    )
    args = parser.parse_args(argv)
    checked, violations = run_gate(slugs=args.slugs or None, update=args.update)
    if args.update:
        print(f"perf-gate: refreshed {len(checked)} baseline(s): "
              + ", ".join(checked))
        return 0
    for violation in violations:
        print(f"perf-gate: FAIL {violation}", file=sys.stderr)
    if violations and args.explain:
        violated = {v.split(":", 1)[0] for v in violations}
        for slug in sorted(violated & set(checked)):
            for line in explain_records(
                _load(baseline_path(slug)), _load(fresh_path(slug))
            ):
                print(f"perf-gate: cause {line}", file=sys.stderr)
    print(
        f"perf-gate: {len(checked)} baseline(s) checked, "
        f"{len(violations)} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
