"""The metering ledger: every charge as an immutable meter event.

Billing used to exist only as per-query floats (``ServerQuery.price``)
— an *emergent* number with no audit trail.  The :class:`MeterLedger`
turns it into an **append-only, event-sourced** record: each completed
query emits one :class:`MeterEvent` per resource axis (bandwidth /
compute / requests / fixed) in exact integer nanodollars, stamped with
the tenant, service level, venue, trace/span correlation, the virtual
timestamp, and the $/TB basis facts (logical bytes scanned, inflation
factor, rate) the charge was derived from.  Cancellations **void**
their events — negating entries are appended, nothing is ever deleted —
so the ledger remains a faithful historical record.

The coordinator's provider-side spend (what the operator pays for VM
and CF worker-seconds) lands in the same ledger under
``account="provider"``, giving one audit surface for both kinds of
money the cost model tracks.

Everything is integer arithmetic over virtual-clock timestamps, so
:meth:`MeterLedger.export_jsonl` is byte-identical across runs and
invariant to ``REPRO_WORKERS`` — and :mod:`repro.obs.reconcile` can
replay an exported ledger standalone and re-prove every invariant.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from repro.obs.profiler import AXES  # the axes a user charge splits into

#: Whose money an event moves: the user's bill or the operator's cloud
#: spend (§2's provider cost).
ACCOUNTS = ("user", "provider")

KINDS = ("charge", "void")


class MeterEvent(NamedTuple):
    """One immutable ledger entry, in integer nanodollars (a named
    tuple: a billed query appends several, and a tuple is the cheapest
    immutable record to build).

    ``nanodollars`` is positive for charges and non-positive for voids;
    ``billed_nanodollars`` stamps the query's *total* bill on every
    user-account charge so a standalone replay can check the per-query
    axis sum without any other data source.  ``bytes_scanned`` /
    ``data_inflation`` / ``price_per_tb`` carry the $/TB logical-bytes
    basis the bill was computed from (storage counters → cost model),
    closing the audit chain end to end.
    """

    seq: int  # ledger-wide monotonic sequence number
    ts: float  # virtual clock at emission
    kind: str  # "charge" | "void"
    account: str  # "user" | "provider"
    query_id: str
    tenant: str
    level: str  # service level value; "" for provider events
    venue: str  # "vm" | "cf" | "none"
    axis: str  # one of AXES
    nanodollars: int
    billed_nanodollars: int = 0  # the query's total user bill
    span_id: int | None = None  # root span of the query's trace
    bytes_scanned: int = 0  # logical bytes from storage counters
    data_inflation: float = 1.0
    price_per_tb: float = 0.0
    reason: str | None = None  # voids carry why ("cancelled", ...)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": round(self.ts, 9),
            "kind": self.kind,
            "account": self.account,
            "query_id": self.query_id,
            "tenant": self.tenant,
            "level": self.level,
            "venue": self.venue,
            "axis": self.axis,
            "nanodollars": self.nanodollars,
            "billed_nanodollars": self.billed_nanodollars,
            "span_id": self.span_id,
            "bytes_scanned": self.bytes_scanned,
            "data_inflation": self.data_inflation,
            "price_per_tb": self.price_per_tb,
            "reason": self.reason,
        }

    @staticmethod
    def from_dict(payload: dict) -> "MeterEvent":
        return MeterEvent(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            account=str(payload["account"]),
            query_id=str(payload["query_id"]),
            tenant=str(payload["tenant"]),
            level=str(payload["level"]),
            venue=str(payload["venue"]),
            axis=str(payload["axis"]),
            nanodollars=int(payload["nanodollars"]),
            billed_nanodollars=int(payload.get("billed_nanodollars", 0)),
            span_id=payload.get("span_id"),
            bytes_scanned=int(payload.get("bytes_scanned", 0)),
            data_inflation=float(payload.get("data_inflation", 1.0)),
            price_per_tb=float(payload.get("price_per_tb", 0.0)),
            reason=payload.get("reason"),
        )


class MeterLedger:
    """Append-only meter-event log with deterministic exports.

    Events are never mutated or removed; cancellation appends negating
    ``void`` events.  Beside the log, each append folds the event into
    three running totals — net user nanodollars per (tenant, level),
    provider nanodollars per venue, and the void count — so a total is
    read without a scan (the spend accountant is a view over them).
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._events: list[MeterEvent] = []
        self._by_query: dict[str, list[int]] = {}
        self._user: dict[tuple[str, str], int] = {}
        self._provider: dict[str, int] = {}
        #: Running totals, read-only: (tenant, level) → net user
        #: nanodollars (voids subtract), venue → provider nanodollars,
        #: and the number of void events.
        self.user_totals: Mapping[tuple[str, str], int] = MappingProxyType(self._user)
        self.provider_totals: Mapping[str, int] = MappingProxyType(self._provider)
        self.voids = 0

    def _append(self, event: MeterEvent) -> MeterEvent:
        self._events.append(event)
        self._by_query.setdefault(event.query_id, []).append(event.seq)
        if event.kind == "void":
            self.voids += 1
        if event.account == "provider":
            totals, key = self._provider, event.venue
        else:
            totals, key = self._user, (event.tenant, event.level)
        totals[key] = totals.get(key, 0) + event.nanodollars
        return event

    # -- emission ------------------------------------------------------------

    def charge(
        self,
        query_id: str,
        *,
        axis: str,
        nanodollars: int,
        tenant: str = "default",
        level: str = "",
        venue: str = "none",
        account: str = "user",
        billed_nanodollars: int = 0,
        span_id: int | None = None,
        bytes_scanned: int = 0,
        data_inflation: float = 1.0,
        price_per_tb: float = 0.0,
    ) -> MeterEvent:
        """Append one charge event (amount may be zero for an axis that
        earned nothing; negatives are the reconciler's business to flag,
        not the ledger's to reject — the ledger records what happened)."""
        if axis not in AXES:
            raise ValueError(f"unknown resource axis {axis!r}; expected {AXES}")
        if account not in ACCOUNTS:
            raise ValueError(
                f"unknown account {account!r}; expected {ACCOUNTS}"
            )
        return self._append(
            MeterEvent(
                seq=len(self._events),
                ts=self._clock(),
                kind="charge",
                account=account,
                query_id=query_id,
                tenant=tenant,
                level=level,
                venue=venue,
                axis=axis,
                nanodollars=int(nanodollars),
                billed_nanodollars=int(billed_nanodollars),
                span_id=span_id,
                bytes_scanned=bytes_scanned,
                data_inflation=data_inflation,
                price_per_tb=price_per_tb,
            )
        )

    def charge_query(
        self,
        query_id: str,
        *,
        axes: dict[str, int],
        billed_nanodollars: int,
        tenant: str = "default",
        level: str = "",
        venue: str = "none",
        span_id: int | None = None,
        bytes_scanned: int = 0,
        data_inflation: float = 1.0,
        price_per_tb: float = 0.0,
    ) -> list[MeterEvent]:
        """Emit the four user-account axis charges of one finished query
        (one event per axis, in AXES order, zero amounts included — the
        reconciler wants the complete decomposition on record)."""
        return [
            self.charge(
                query_id,
                axis=axis,
                nanodollars=axes.get(axis, 0),
                tenant=tenant,
                level=level,
                venue=venue,
                account="user",
                billed_nanodollars=billed_nanodollars,
                span_id=span_id,
                bytes_scanned=bytes_scanned,
                data_inflation=data_inflation,
                price_per_tb=price_per_tb,
            )
            for axis in AXES
        ]

    def void(
        self,
        query_id: str,
        *,
        tenant: str = "default",
        level: str = "",
        venue: str = "none",
        span_id: int | None = None,
        reason: str = "cancelled",
    ) -> list[MeterEvent]:
        """Void a query's charges: append one negating event per prior
        user-account charge (so the query nets to exactly zero), or a
        single zero-amount tombstone when nothing had been charged yet —
        a cancelled query still leaves its mark in the ledger."""
        prior = [
            event
            for event in self.events_for(query_id)
            if event.kind == "charge" and event.account == "user"
        ]
        voids: list[MeterEvent] = []
        if prior:
            for event in prior:
                voids.append(
                    self._append(
                        event._replace(
                            seq=len(self._events),
                            ts=self._clock(),
                            kind="void",
                            nanodollars=-event.nanodollars,
                            reason=reason,
                        )
                    )
                )
            return voids
        voids.append(
            self._append(
                MeterEvent(
                    seq=len(self._events),
                    ts=self._clock(),
                    kind="void",
                    account="user",
                    query_id=query_id,
                    tenant=tenant,
                    level=level,
                    venue=venue,
                    axis="fixed",
                    nanodollars=0,
                    reason=reason,
                )
            )
        )
        return voids

    # -- queries -------------------------------------------------------------

    def events(self) -> list[MeterEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events_for(self, query_id: str) -> list[MeterEvent]:
        return [
            self._events[seq] for seq in self._by_query.get(query_id, [])
        ]

    def query_ids(self) -> list[str]:
        """Query ids with at least one ledger event, sorted."""
        return sorted(self._by_query)

    def net_nanodollars(self, query_id: str, account: str = "user") -> int:
        """Charges minus voids for one query on one account."""
        return sum(
            event.nanodollars
            for event in self.events_for(query_id)
            if event.account == account
        )

    def total_nanodollars(self, account: str = "user") -> int:
        totals = self._provider if account == "provider" else self._user
        return sum(totals.values())

    def voided_query_ids(self) -> list[str]:
        return sorted(
            {
                event.query_id
                for event in self._events
                if event.kind == "void"
            }
        )

    # -- export --------------------------------------------------------------

    def export_jsonl(self) -> str:
        """The whole ledger as byte-stable JSONL, one event per line in
        sequence order."""
        lines = [
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self._events
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def load_events_jsonl(text: str) -> list[MeterEvent]:
    """Parse a :meth:`MeterLedger.export_jsonl` document back into
    events — the standalone-replay entry point the reconciler CLI uses."""
    events: list[MeterEvent] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(MeterEvent.from_dict(json.loads(line)))
    return events


def events_jsonl(events: Iterable[MeterEvent]) -> str:
    """Serialize events the same way the ledger does (test helper for
    building corrupted ledgers)."""
    lines = [json.dumps(event.to_dict(), sort_keys=True) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")
