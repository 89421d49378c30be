"""The CI billing-reconciliation gate: replay every exported ledger.

The observed benches (C1, C2, C4, C5, and every C8 sweep cell) export
their metering ledgers to ``benchmarks/results/*_ledger.jsonl`` via
:func:`common.export_ledger_audit`.  This script replays each one
standalone through :mod:`repro.obs.reconcile` and fails on any named
invariant violation — proving, from the artifacts alone, that every
query's ledger events sum to the billed price and to the $/TB
logical-bytes basis in exact integer nanodollars.

It then runs a **seeded negative test**: it takes one real ledger,
tampers with a single charge event (one nanodollar added to a bandwidth
charge), and requires the reconciler to detect the corruption and name
the violated invariant (``ledger.charge_sums_to_bill``).  A gate that
cannot catch a corrupted ledger is not a gate; CI fails if the
corruption slips through.

Exit status: 0 when every ledger reconciles and the corruption is
caught; non-zero otherwise.

Usage::

    PYTHONPATH=src python benchmarks/reconcile_gate.py
"""

from __future__ import annotations

import glob
import os
import sys

_RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

#: Ledgers the gate insists on (beyond replaying whatever is present).
#: C9 is the fleet-scheduling bench: its ledger proves that rejected
#: queries billed $0 (they emit no events at all) and that downgraded
#: queries' best-effort charges reconcile exactly.
_REQUIRED_LEDGERS = ("c9_ledger.jsonl",)


def _replay_all() -> int:
    from repro.obs.ledger import load_events_jsonl
    from repro.obs.reconcile import reconcile_events

    paths = sorted(glob.glob(os.path.join(_RESULTS_DIR, "*_ledger.jsonl")))
    if not paths:
        print(
            "RECONCILE GATE: no *_ledger.jsonl artifacts under "
            f"{_RESULTS_DIR} — run the observed benches first",
            file=sys.stderr,
        )
        return 2
    present = {os.path.basename(p) for p in paths}
    missing = [name for name in _REQUIRED_LEDGERS if name not in present]
    if missing:
        print(
            f"RECONCILE GATE: required ledger export(s) missing: {missing} "
            "— run the fleet-scheduling bench first",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            events = load_events_jsonl(handle.read())
        report = reconcile_events(events)
        print(f"{os.path.basename(path)}: {report.render()}")
        if not report.ok:
            failures += 1
    return 1 if failures else 0


def _negative_test() -> int:
    """Corrupt one real ledger; the reconciler must name the drift."""
    from repro.obs.ledger import load_events_jsonl
    from repro.obs.reconcile import reconcile_events

    paths = sorted(glob.glob(os.path.join(_RESULTS_DIR, "*_ledger.jsonl")))
    events = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            events = load_events_jsonl(handle.read())
        if any(
            e.kind == "charge" and e.account == "user" and e.axis == "bandwidth"
            for e in events
        ):
            break
    target = next(
        (
            i
            for i, e in enumerate(events)
            if e.kind == "charge"
            and e.account == "user"
            and e.axis == "bandwidth"
        ),
        None,
    )
    if target is None:
        print(
            "RECONCILE GATE: no user bandwidth charge found to corrupt",
            file=sys.stderr,
        )
        return 2
    tampered = list(events)
    tampered[target] = tampered[target]._replace(
        nanodollars=tampered[target].nanodollars + 1,
    )
    report = reconcile_events(tampered)
    named = {v.invariant for v in report.violations}
    if "ledger.charge_sums_to_bill" in named:
        print(
            "negative test: corrupted ledger detected "
            f"({sorted(named)}) — gate is live"
        )
        return 0
    print(
        "RECONCILE GATE: seeded 1-nanodollar corruption was NOT detected "
        f"(violations: {sorted(named)})",
        file=sys.stderr,
    )
    return 1


def main() -> int:
    replay = _replay_all()
    if replay:
        return replay
    return _negative_test()


if __name__ == "__main__":
    raise SystemExit(main())
