"""Per-tenant spend accounting over the metering ledger.

The :class:`SpendAccountant` is a read-only view over the
:class:`~repro.obs.ledger.MeterLedger`'s running totals — per-tenant ×
per-service-level spend in integer nanodollars, the provider-side spend
per venue, the void count — plus the soft tenant budgets, the only
state it holds.  Budgets are *soft*: crossing one never blocks
a query — it raises an alert through the existing alert engine instead
(see :func:`budget_rules`), which is the paper-consistent behaviour for
an analytics service that bills per TB rather than pre-authorizing.

The JSON report is integer/virtual-clock data only, so it is
byte-identical across runs and invariant to ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.obs.ledger import MeterLedger
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
    """Per-tenant/per-level spend, read off the ledger's running totals.

    Every read is bounded by tenants × levels and venues, not by event
    count, so admission and the projection guard can ask on every
    submission and every tick.
    """

    def __init__(
        self, ledger: MeterLedger, budgets: dict[str, float] | None = None
    ) -> None:
        self._ledger = ledger
        self._budgets: dict[str, float] = dict(budgets or {})

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
        return sorted({tenant for tenant, _ in self._ledger.user_totals})

    def tenant_nanodollars(self, tenant: str) -> int:
        return sum(
            nanos
            for (t, _), nanos in self._ledger.user_totals.items()
            if t == tenant
        )

    def by_level(self, tenant: str) -> dict[str, int]:
        """Level → net nanodollars for one tenant, level-sorted."""
        out = {
            level: nanos
            for (t, level), nanos in self._ledger.user_totals.items()
            if t == tenant
        }
        return {level: out[level] for level in sorted(out)}

    def provider_nanodollars(self) -> dict[str, int]:
        """Provider-account spend per venue, venue-sorted."""
        provider = self._ledger.provider_totals
        return {venue: provider[venue] for venue in sorted(provider)}

    # -- export --------------------------------------------------------------

    def report(self) -> dict:
        """The per-tenant spend report (JSON-ready, deterministic)."""
        tenants = []
        over = set(self.over_budget())
        for tenant in self.tenants():
            nanos = self.tenant_nanodollars(tenant)
            tenants.append(
                {
                    "tenant": tenant,
                    "nanodollars": nanos,
                    "dollars": round(nanos / NANOS_PER_DOLLAR, 12),
                    "by_level": self.by_level(tenant),
                    "budget_dollars": self._budgets.get(tenant),
                    "over_budget": tenant in over,
                }
            )
        return {
            "tenants": tenants,
            "provider_nanodollars": self.provider_nanodollars(),
            "events": len(self._ledger),
            "voids": self._ledger.voids,
        }

    def export_json(self) -> str:
        """Byte-stable JSON export of the spend report."""
        return json.dumps(self.report(), indent=2, sort_keys=True) + "\n"
