"""Virtual-time weighted-fair queueing across tenant flows.

One :class:`FairQueue` arbitrates the held queries of a single service
level.  Every tenant is a *flow*; the queue assigns each arriving query
a virtual **finish tag** (start-time fair queueing):

    start  = max(virtual_now, last_finish[tenant])
    finish = start + cost / share[tenant]

and always dispatches the globally smallest finish tag.  Because tags
are monotone *within* a flow, the smallest tag overall is always some
flow's head, so a single heap implements per-flow FIFO + cross-flow
weighted fairness in O(log n).  With a single tenant the tags collapse
to arrival order and the queue degenerates to exactly the FIFO list it
replaced — which is what keeps the pre-scheduler benchmark baselines
byte-identical.

Everything is driven by the simulation thread and uses integer sequence
numbers for tie-breaks, so dispatch order is deterministic and invariant
to ``REPRO_WORKERS``.

The service levels themselves stay strict *priority classes* on top of
this (the paper's §3.2 admission rules): immediate never queues, relaxed
drains before best-of-effort.  :class:`LevelScheduler` bundles one
FairQueue per holdable level and owns the cross-level accounting
(per-tenant dispatch counts, Jain fairness index, snapshots).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable

from repro.core.service_levels import ServiceLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query_server import ServerQuery

#: Share weight of every tenant without an explicit share.
DEFAULT_SHARE = 1.0


class FairQueue:
    """Weighted-fair queue over tenant flows for one service level."""

    def __init__(self, shares: dict[str, float] | None = None) -> None:
        self._shares: dict[str, float] = dict(shares or {})
        #: Virtual clock: finish tag of the last dispatched query.
        self._virtual_now = 0.0
        #: Per-flow finish tag of the last *arrived* query.
        self._last_finish: dict[str, float] = {}
        #: Min-heap of (finish_tag, seq, record); cancelled entries are
        #: lazily skipped via the tombstone set.
        self._heap: list[tuple[float, int, "ServerQuery"]] = []
        self._tombstones: set[str] = set()
        self._seq = 0
        self._depths: dict[str, int] = {}
        self._live = 0

    # -- shares ---------------------------------------------------------------

    def share_of(self, tenant: str) -> float:
        return self._shares.get(tenant, DEFAULT_SHARE)

    # -- queue ops ------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def push(self, record: "ServerQuery", cost: float = 1.0) -> float:
        """Enqueue ``record`` under its tenant's flow; returns the
        virtual finish tag the scheduler assigned it."""
        tenant = record.tenant
        share = self.share_of(tenant)
        start = max(self._virtual_now, self._last_finish.get(tenant, 0.0))
        finish = start + cost / share
        self._last_finish[tenant] = finish
        self._seq += 1
        heapq.heappush(self._heap, (finish, self._seq, record))
        record.finish_tag = finish
        self._depths[tenant] = self._depths.get(tenant, 0) + 1
        self._live += 1
        return finish

    def _drop(self, record: "ServerQuery") -> None:
        depth = self._depths.get(record.tenant, 0) - 1
        if depth > 0:
            self._depths[record.tenant] = depth
        else:
            self._depths.pop(record.tenant, None)
        self._live -= 1

    def peek(self) -> "ServerQuery | None":
        """The query the scheduler would dispatch next (or None)."""
        while self._heap:
            _, _, record = self._heap[0]
            if record.query_id in self._tombstones:
                heapq.heappop(self._heap)
                self._tombstones.discard(record.query_id)
                continue
            return record
        return None

    def pop(self) -> "ServerQuery | None":
        """Dequeue the smallest-finish-tag query, advancing virtual time."""
        while self._heap:
            finish, _, record = heapq.heappop(self._heap)
            if record.query_id in self._tombstones:
                self._tombstones.discard(record.query_id)
                continue
            self._virtual_now = max(self._virtual_now, finish)
            self._drop(record)
            return record
        return None

    def remove(self, query_id: str) -> bool:
        """Lazily remove a held query (cancellation path)."""
        for _, _, record in self._heap:
            if (
                record.query_id == query_id
                and query_id not in self._tombstones
            ):
                self._tombstones.add(query_id)
                self._drop(record)
                return True
        return False

    def records(self) -> list["ServerQuery"]:
        """Held queries in dispatch (finish-tag) order — a *view*; the
        heap itself is never exposed, so callers cannot observe or mutate
        a half-drained queue."""
        live = [
            entry
            for entry in self._heap
            if entry[2].query_id not in self._tombstones
        ]
        return [record for _, _, record in sorted(live, key=lambda e: e[:2])]

    def depths(self) -> dict[str, int]:
        """Tenant → held-query count, tenant-sorted (JSON-ready)."""
        return {tenant: self._depths[tenant] for tenant in sorted(self._depths)}


def jain_index(values: Iterable[float]) -> float | None:
    """Jain's fairness index over per-tenant allocations.

    ``(Σx)² / (n · Σx²)`` — 1.0 when every tenant got the same service,
    approaching ``1/n`` under total capture by one tenant.  ``None`` when
    there is nothing to compare (fewer than one tenant or zero service).
    """
    xs = [float(v) for v in values]
    if not xs:
        return None
    square_sum = sum(x * x for x in xs)
    if square_sum == 0.0:
        return None
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


#: The two service levels whose queries can be held by the server;
#: dispatch preference follows this order (relaxed before best-effort),
#: which is exactly the paper's watermark semantics: held relaxed exists
#: only above the high watermark, held best-effort dispatches only below
#: the low one, so the strict ordering never starves best-effort.
HELD_LEVELS = (ServiceLevel.RELAXED, ServiceLevel.BEST_EFFORT)


class LevelScheduler:
    """One FairQueue per holdable service level + cross-level accounting.

    This is the weighted-fair core the query server delegates to: it
    owns every held query, assigns virtual finish tags, tracks per-tenant
    dispatch counts for the fairness index, and renders the snapshot the
    dashboard/Rover scheduler panels consume.  It never talks to the
    coordinator — eligibility (watermarks, grace deadlines) stays with
    the caller, which feeds admitted queries in and asks for the next
    dispatchable one.
    """

    def __init__(self, shares: dict[str, float] | None = None) -> None:
        self._queues: dict[ServiceLevel, FairQueue] = {
            level: FairQueue(shares) for level in HELD_LEVELS
        }
        self._shares = dict(shares or {})
        #: Tenant → queries dispatched *from a hold queue* (WFQ decisions
        #: only; immediate queries never enter the contended queues and
        #: would otherwise drown the fairness signal).
        self._dispatched: dict[str, int] = {}

    # -- queue access ---------------------------------------------------------

    def queue(self, level: ServiceLevel) -> FairQueue:
        try:
            return self._queues[level]
        except KeyError:
            raise ValueError(
                f"service level {level.value!r} has no hold queue"
            ) from None

    def depth(self, level: ServiceLevel) -> int:
        return len(self._queues[level])

    def push(self, record: "ServerQuery") -> float:
        return self.queue(record.level).push(record)

    def pop(self, level: ServiceLevel) -> "ServerQuery | None":
        record = self._queues[level].pop()
        if record is not None:
            self._dispatched[record.tenant] = (
                self._dispatched.get(record.tenant, 0) + 1
            )
        return record

    def peek(self, level: ServiceLevel) -> "ServerQuery | None":
        return self._queues[level].peek()

    def claim(self, record: "ServerQuery") -> bool:
        """Remove a *specific* held record out of WFQ order (the
        grace-expiry force dispatch), still counting it as a dispatch
        for fairness accounting."""
        queue = self._queues.get(record.level)
        if queue is None or not queue.remove(record.query_id):
            return False
        self._dispatched[record.tenant] = (
            self._dispatched.get(record.tenant, 0) + 1
        )
        return True

    def remove(self, query_id: str) -> bool:
        return any(queue.remove(query_id) for queue in self._queues.values())

    def records(self, level: ServiceLevel) -> list["ServerQuery"]:
        return self.queue(level).records()

    def share_of(self, tenant: str) -> float:
        return self._shares.get(tenant, DEFAULT_SHARE)

    # -- accounting -----------------------------------------------------------

    def dispatched_by_tenant(self) -> dict[str, int]:
        return {
            tenant: self._dispatched[tenant]
            for tenant in sorted(self._dispatched)
        }

    def fairness_index(self) -> float | None:
        """Jain index over per-tenant WFQ dispatch counts."""
        return jain_index(self._dispatched.values())

    def snapshot(self) -> dict:
        """JSON-ready scheduler state (deterministic key order)."""
        shares = {
            tenant: self._shares[tenant] for tenant in sorted(self._shares)
        }
        fairness = self.fairness_index()
        return {
            "queues": {
                level.value: self._queues[level].depths()
                for level in HELD_LEVELS
            },
            "queue_depths": {
                level.value: len(self._queues[level]) for level in HELD_LEVELS
            },
            "dispatched_by_tenant": self.dispatched_by_tenant(),
            "fairness": {
                "jain_dispatched": (
                    round(fairness, 9) if fairness is not None else None
                ),
            },
            "shares": {"default": DEFAULT_SHARE, **shares},
        }
