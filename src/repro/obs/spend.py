"""Per-tenant spend accounting over the metering ledger.

The :class:`SpendAccountant` subscribes to the :class:`~repro.obs.ledger.
MeterLedger` and maintains running per-tenant × per-service-level spend
aggregates in integer nanodollars, the provider-side spend per venue,
and soft tenant budgets.  Budgets are *soft*: crossing one never blocks
a query — it raises an alert through the existing alert engine instead
(see :func:`budget_rules`), which is the paper-consistent behaviour for
an analytics service that bills per TB rather than pre-authorizing.

The JSON report is integer/virtual-clock data only, so it is
byte-identical across runs and invariant to ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.obs.ledger import MeterEvent
from repro.obs.profiler import NANOS_PER_DOLLAR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.alerts import ThresholdRule

#: The metric the query server increments per completed query; budget
#: threshold rules select it by tenant label (the label set sits under
#: the registry's cardinality guard like every other series).
TENANT_BILLED_METRIC = "pixels_tenant_billed_dollars_total"


def budget_rules(budgets: dict[str, float]) -> "list[ThresholdRule]":
    """Soft-budget alert rules: one ThresholdRule per tenant, firing on
    the scrape cadence once the tenant's cumulative billed dollars
    exceed the budget.  Append these to the alert engine's rule set."""
    from repro.obs.alerts import ThresholdRule, labels_of

    return [
        ThresholdRule(
            name=f"TenantBudget:{tenant}",
            metric=TENANT_BILLED_METRIC,
            threshold=float(limit),
            labels=labels_of(tenant=tenant),
        )
        for tenant, limit in sorted(budgets.items())
    ]


class SpendAccountant:
    """Running per-tenant/per-level spend over ledger events.

    State is bounded by tenants × levels and venues, not by event count.
    """

    def __init__(self, budgets: dict[str, float] | None = None) -> None:
        #: (tenant, level) -> net nanodollars (voids subtract).
        self._totals: dict[tuple[str, str], int] = {}
        self._provider: dict[str, int] = {}  # venue -> nanodollars
        self._budgets: dict[str, float] = dict(budgets or {})
        self._events = 0
        self._voids = 0

    # -- ledger feed ---------------------------------------------------------

    def on_event(self, event: MeterEvent) -> None:
        """Ledger listener: fold one meter event into the aggregates."""
        self._events += 1
        if event.kind == "void":
            self._voids += 1
        if event.account == "provider":
            venue = event.venue
            self._provider[venue] = (
                self._provider.get(venue, 0) + event.nanodollars
            )
            return
        key = (event.tenant, event.level)
        self._totals[key] = self._totals.get(key, 0) + event.nanodollars

    # -- budgets -------------------------------------------------------------

    def budgets(self) -> dict[str, float]:
        return dict(self._budgets)

    def over_budget(self) -> list[str]:
        """Tenants whose net spend exceeds their soft budget, sorted."""
        return sorted(
            tenant
            for tenant, limit in self._budgets.items()
            if self.tenant_nanodollars(tenant)
            > round(limit * NANOS_PER_DOLLAR)
        )

    # -- queries -------------------------------------------------------------

    def tenants(self) -> list[str]:
        return sorted({tenant for tenant, _ in self._totals})

    def tenant_nanodollars(self, tenant: str) -> int:
        return sum(
            nanos
            for (t, _), nanos in self._totals.items()
            if t == tenant
        )

    def by_level(self, tenant: str) -> dict[str, int]:
        """Level → net nanodollars for one tenant, level-sorted."""
        out = {
            level: nanos
            for (t, level), nanos in self._totals.items()
            if t == tenant
        }
        return {level: out[level] for level in sorted(out)}

    def provider_nanodollars(self) -> dict[str, int]:
        """Provider-account spend per venue, venue-sorted."""
        return {venue: self._provider[venue] for venue in sorted(self._provider)}

    # -- export --------------------------------------------------------------

    def report(self) -> dict:
        """The per-tenant spend report (JSON-ready, deterministic)."""
        tenants = []
        for tenant in self.tenants():
            nanos = self.tenant_nanodollars(tenant)
            budget = self._budgets.get(tenant)
            tenants.append(
                {
                    "tenant": tenant,
                    "nanodollars": nanos,
                    "dollars": round(nanos / NANOS_PER_DOLLAR, 12),
                    "by_level": self.by_level(tenant),
                    "budget_dollars": budget,
                    "over_budget": (
                        nanos > round(budget * NANOS_PER_DOLLAR)
                        if budget is not None
                        else False
                    ),
                }
            )
        return {
            "tenants": tenants,
            "provider_nanodollars": self.provider_nanodollars(),
            "events": self._events,
            "voids": self._voids,
        }

    def export_json(self) -> str:
        """Byte-stable JSON export of the spend report."""
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"
