"""End-to-end billing reconciliation over the metering ledger.

The reconciler replays a ledger and proves, per query and in **exact
integer arithmetic** (zero tolerance), that the four audit surfaces
agree:

    ledger axis sum == the server's meter reading split
                    == billed price
                    == the $/TB logical-bytes basis from storage counters

Any drift is reported as a *named invariant violation*:

* ``ledger.sequence_monotonic`` — seq strictly increasing, virtual
  timestamps non-decreasing (append-only was respected).
* ``ledger.schema`` — unknown axis/account/kind on an event.
* ``ledger.charge_sign`` — a negative charge or a positive void.
* ``ledger.charge_sums_to_bill`` — a query's axis charges must sum to
  the total bill stamped on them (and the stamps must agree).
* ``ledger.bytes_basis`` — the stamped bill must equal
  ``round(bytes × inflation / TB × $/TB × 1e9)`` — the storage-counter
  basis re-derived from the facts carried on the event itself.
* ``ledger.void_nets_zero`` — a voided query must net to exactly $0.
* ``ledger.missing_query`` — a finished, billed query with no ledger
  events (server-side replay only).
* ``ledger.matches_billed_price`` — ledger net == the server's integer
  ``price_nanodollars`` == ``round(price × 1e9)``.
* ``ledger.matches_profiler_attribution`` — per-axis ledger amounts ==
  the resource split of the query's one bill
  (:class:`~repro.turbo.cost.MeterReading`, kept on ``record.bill``),
  which the profiler spreads over its attribution tree.
* ``profiler.tree_sums_to_bill`` — the attribution tree's per-node
  nanodollars sum exactly to the bill.
* ``ledger.failed_query_charged`` — a failed/cancelled query with a
  non-zero net charge.
* ``ledger.total_matches_server`` — Σ per-query nets ==
  ``QueryServer.total_billed_nanodollars()``.

:func:`reconcile_events` needs only the events (the standalone JSONL
replay used by the CLI and the CI gate); :func:`reconcile_server` also
cross-checks the live server, profiler, and statement surfaces.

CLI::

    PYTHONPATH=src python -m repro.obs.reconcile results/c1_ledger.jsonl

exits 1 when any invariant is violated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.obs.ledger import ACCOUNTS, AXES, KINDS, MeterEvent
from repro.obs.profiler import NANOS_PER_DOLLAR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import QueryServer

#: Mirrors :data:`repro.turbo.cost.TB` without importing the turbo stack
#: (the standalone replay must not need an engine on the path).
TB = 1024**4


@dataclass(frozen=True)
class InvariantViolation:
    """One named reconciliation failure."""

    invariant: str
    query_id: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "query_id": self.query_id,
            "detail": self.detail,
        }


@dataclass
class ReconciliationReport:
    """The outcome of one ledger replay."""

    events_checked: int = 0
    queries_checked: int = 0
    total_nanodollars: int = 0  # net user-account nanodollars
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, query_id: str, detail: str) -> None:
        self.violations.append(
            InvariantViolation(invariant, query_id, detail)
        )

    def merge(self, other: "ReconciliationReport") -> None:
        self.events_checked += other.events_checked
        self.queries_checked += other.queries_checked
        self.total_nanodollars += other.total_nanodollars
        self.violations.extend(other.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "events_checked": self.events_checked,
            "queries_checked": self.queries_checked,
            "total_nanodollars": self.total_nanodollars,
            "violations": [v.to_dict() for v in self.violations],
        }

    def export_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable summary for CLIs and assertion messages."""
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"reconciliation {status}: {self.queries_checked} queries, "
            f"{self.events_checked} events, net "
            f"{self.total_nanodollars} nanodollars "
            f"(${self.total_nanodollars / NANOS_PER_DOLLAR:.9f})"
        ]
        for violation in self.violations:
            lines.append(
                f"  VIOLATION {violation.invariant} "
                f"query={violation.query_id}: {violation.detail}"
            )
        return "\n".join(lines)


def bytes_basis_nanodollars(
    bytes_scanned: int, data_inflation: float, price_per_tb: float
) -> int:
    """The $/TB logical-bytes billing basis, in integer nanodollars.

    Replicates :meth:`~repro.turbo.cost.CostModel.user_price` exactly —
    same float expression, same rounding — so the reconciler's expected
    value is the bill the cost model would have produced from the same
    storage counters.
    """
    return round(
        ((bytes_scanned * data_inflation) / TB)
        * price_per_tb
        * NANOS_PER_DOLLAR
    )


def reconcile_events(
    events: Iterable[MeterEvent],
) -> ReconciliationReport:
    """Standalone replay: prove the ledger's internal invariants from
    nothing but the events themselves."""
    events = list(events)
    report = ReconciliationReport(events_checked=len(events))

    last_seq = None
    last_ts = None
    for event in events:
        if (
            event.axis not in AXES
            or event.account not in ACCOUNTS
            or event.kind not in KINDS
        ):
            report.add(
                "ledger.schema",
                event.query_id,
                f"seq={event.seq} axis={event.axis!r} "
                f"account={event.account!r} kind={event.kind!r}",
            )
        if last_seq is not None and event.seq <= last_seq:
            report.add(
                "ledger.sequence_monotonic",
                event.query_id,
                f"seq {event.seq} follows {last_seq}",
            )
        if last_ts is not None and event.ts < last_ts:
            report.add(
                "ledger.sequence_monotonic",
                event.query_id,
                f"ts {event.ts} precedes {last_ts} (seq={event.seq})",
            )
        last_seq, last_ts = event.seq, event.ts
        if event.kind == "charge" and event.nanodollars < 0:
            report.add(
                "ledger.charge_sign",
                event.query_id,
                f"negative charge {event.nanodollars} (seq={event.seq})",
            )
        if event.kind == "void" and event.nanodollars > 0:
            report.add(
                "ledger.charge_sign",
                event.query_id,
                f"positive void {event.nanodollars} (seq={event.seq})",
            )

    by_query: dict[str, list[MeterEvent]] = {}
    for event in events:
        if event.account == "user":
            by_query.setdefault(event.query_id, []).append(event)

    for query_id in sorted(by_query):
        query_events = by_query[query_id]
        charges = [e for e in query_events if e.kind == "charge"]
        voided = any(e.kind == "void" for e in query_events)
        net = sum(e.nanodollars for e in query_events)
        report.queries_checked += 1
        report.total_nanodollars += net
        if voided:
            if net != 0:
                report.add(
                    "ledger.void_nets_zero",
                    query_id,
                    f"voided query nets {net} nanodollars, expected 0",
                )
            continue
        if not charges:
            continue
        stamps = {e.billed_nanodollars for e in charges}
        charged = sum(e.nanodollars for e in charges)
        if len(stamps) != 1 or charged != next(iter(stamps)):
            report.add(
                "ledger.charge_sums_to_bill",
                query_id,
                f"axis sum {charged} != stamped bill "
                f"{sorted(stamps)} nanodollars",
            )
            continue
        stamp = next(iter(stamps))
        basis = bytes_basis_nanodollars(
            charges[0].bytes_scanned,
            charges[0].data_inflation,
            charges[0].price_per_tb,
        )
        if basis != stamp:
            report.add(
                "ledger.bytes_basis",
                query_id,
                f"stamped bill {stamp} != bytes basis {basis} "
                f"(bytes={charges[0].bytes_scanned} "
                f"inflation={charges[0].data_inflation} "
                f"rate={charges[0].price_per_tb}$/TB)",
            )
    return report


def reconcile_server(
    server: "QueryServer", replay_events: bool = True
) -> ReconciliationReport:
    """Full cross-check of a live server against its ledger.

    Runs the standalone replay over the server's ledger, then proves the
    per-query equalities against the server's integer bill, the profiler
    attribution tree, and the server-wide total.  Pass
    ``replay_events=False`` when the ledger is shared with other servers
    and the event-level replay already ran (avoids double-counting).
    """
    from repro.errors import PixelsError

    ledger = server.obs.ledger
    report = (
        reconcile_events(ledger.events())
        if replay_events
        else ReconciliationReport()
    )
    server_total = 0
    for record in sorted(server.queries, key=lambda r: r.query_id):
        if not record.status.is_terminal:
            continue
        net = ledger.net_nanodollars(record.query_id)
        server_total += record.price_nanodollars
        execution = record.execution
        finished = (
            execution is not None
            and execution.error is None
            and execution.result is not None
        )
        if not finished:
            if net != 0 or record.price_nanodollars != 0:
                report.add(
                    "ledger.failed_query_charged",
                    record.query_id,
                    f"non-finished query carries net {net} "
                    f"(price_nanodollars={record.price_nanodollars})",
                )
            continue
        events = [
            e
            for e in ledger.events_for(record.query_id)
            if e.account == "user" and e.kind == "charge"
        ]
        if not events:
            report.add(
                "ledger.missing_query",
                record.query_id,
                f"finished query billed "
                f"{record.price_nanodollars} nanodollars has no "
                f"ledger events",
            )
            continue
        expected = round(record.price * NANOS_PER_DOLLAR)
        if not (net == record.price_nanodollars == expected):
            report.add(
                "ledger.matches_billed_price",
                record.query_id,
                f"ledger net {net} != server integer bill "
                f"{record.price_nanodollars} != round(price*1e9) "
                f"{expected}",
            )
        try:
            profile = server.query_profile(record.query_id)
        except PixelsError:
            profile = None
        if profile is not None:
            tree_sum = sum(
                node.self_nanodollars for node in profile.root.walk()
            )
            if not (tree_sum == profile.billed_nanodollars == net):
                report.add(
                    "profiler.tree_sums_to_bill",
                    record.query_id,
                    f"profile tree sums to {tree_sum}, profile bill "
                    f"{profile.billed_nanodollars}, ledger net {net}",
                )
        by_axis = {axis: 0 for axis in AXES}
        for event in events:
            by_axis[event.axis] += event.nanodollars
        if by_axis != record.bill.axes:
            report.add(
                "ledger.matches_profiler_attribution",
                record.query_id,
                f"ledger axes {by_axis} != bill split {record.bill.axes}",
            )
    total_billed = server.total_billed_nanodollars()
    if server_total != total_billed:
        report.add(
            "ledger.total_matches_server",
            "*",
            f"sum of per-query integer bills {server_total} != "
            f"total_billed_nanodollars() {total_billed}",
        )
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: replay one or more exported ledgers and report violations."""
    import sys

    from repro.obs.ledger import load_events_jsonl

    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(
            "usage: python -m repro.obs.reconcile <ledger.jsonl> [...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            events = load_events_jsonl(handle.read())
        report = reconcile_events(events)
        print(f"{path}: {report.render()}")
        failed = failed or not report.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
