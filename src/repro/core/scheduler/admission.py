"""The admission layer: per-tenant quotas, rate limits, and downgrades.

Sits in front of the weighted-fair core.  Every submission gets exactly
one :class:`AdmissionDecision` before it touches a queue:

* **admit** — proceed at the requested level (the default policy admits
  everything, so a server built without an explicit
  :class:`AdmissionPolicy` behaves exactly like the pre-scheduler one);
* **downgrade** — proceed, but at ``best_effort`` instead of the
  requested ``relaxed`` level: the query keeps running and bills at the
  *downgraded* level's $/TB rate, it just loses its grace-deadline
  claim.  Triggered by hold-queue pressure, and earlier for tenants over
  their soft spend budget (the :mod:`repro.obs.spend` accountant is
  consulted, never mutated);
* **reject** — refuse with :class:`~repro.errors.QueryRejectedError`
  before anything is queued or billed: a rejected query never reaches
  the coordinator, bills exactly $0, and leaves no ledger events, so it
  reconciles trivially.

Token buckets run on the simulation clock, so every decision is
deterministic and worker-count-invariant.  Immediate queries are never
downgraded — they are the product's hard-deadline tier — but they are
subject to quotas and rate limits like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.service_levels import ServiceLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spend import SpendAccountant

#: Decision actions, in increasing severity.
ADMIT = "admit"
DOWNGRADE = "downgrade"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission layer (all off by default).

    The default instance is inert: no quotas, no rate limits, no
    downgrades — submissions flow to the scheduler untouched, which is
    what keeps every pre-scheduler test and benchmark baseline valid.
    """

    #: Max live (held or executing) queries one tenant may have; None
    #: disables the quota.
    tenant_quota: int | None = None
    #: Token-bucket refill rate per tenant (queries/second); None
    #: disables rate limiting.
    tenant_rate_per_s: float | None = None
    #: Token-bucket capacity (burst size) when rate limiting is on.
    tenant_burst: float = 16.0
    #: Downgrade relaxed → best_effort once the relaxed hold queue holds
    #: at least this many queries; None disables pressure downgrades.
    downgrade_queue_depth: int | None = None
    #: Over-budget tenants (per the spend accountant's soft budgets)
    #: downgrade at this fraction of ``downgrade_queue_depth`` — they
    #: shed load first.  Only meaningful with both a downgrade depth and
    #: a live spend accountant.
    over_budget_fraction: float = 0.5


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one submission."""

    action: str  # admit | downgrade | reject
    level: ServiceLevel  # effective level after the decision
    requested: ServiceLevel
    reason: str

    @property
    def admitted(self) -> bool:
        return self.action != REJECT

    def to_attrs(self) -> dict:
        """Span/journal attribute view of the decision."""
        return {
            "verdict": self.action,
            "reason": self.reason,
            "requested_level": self.requested.value,
        }


class AdmissionController:
    """Stateless policy + per-tenant token buckets on the sim clock."""

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        clock: Callable[[], float] | None = None,
        spend: "SpendAccountant | None" = None,
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._spend = spend
        #: tenant -> (tokens, last refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}
        self.admitted = 0
        self.rejections: dict[str, int] = {}
        self.downgrades: dict[str, int] = {}

    # -- token bucket ---------------------------------------------------------

    def _take_token(self, tenant: str) -> bool:
        rate = self.policy.tenant_rate_per_s
        if rate is None:
            return True
        now = self._clock()
        tokens, last = self._buckets.get(
            tenant, (self.policy.tenant_burst, now)
        )
        tokens = min(self.policy.tenant_burst, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._buckets[tenant] = (tokens, now)
            return False
        self._buckets[tenant] = (tokens - 1.0, now)
        return True

    # -- budgets --------------------------------------------------------------

    def _over_budget(self, tenant: str) -> bool:
        if self._spend is None:
            return False
        return tenant in self._spend.over_budget()

    # -- the verdict ----------------------------------------------------------

    def decide(
        self,
        tenant: str,
        level: ServiceLevel,
        tenant_live: int,
        relaxed_depth: int,
    ) -> AdmissionDecision:
        """Judge one submission.

        Args:
            tenant: Billing tenant of the submission.
            level: Requested service level.
            tenant_live: The tenant's current held + executing queries.
            relaxed_depth: Current relaxed hold-queue depth (the
                pressure signal for downgrades).
        """
        policy = self.policy
        quota = policy.tenant_quota
        if quota is not None and tenant_live >= quota:
            return self._reject(level, "tenant_quota")
        if not self._take_token(tenant):
            return self._reject(level, "rate_limit")
        if (
            level is ServiceLevel.RELAXED
            and policy.downgrade_queue_depth is not None
        ):
            threshold = policy.downgrade_queue_depth
            reason = "queue_pressure"
            if self._over_budget(tenant):
                threshold = max(
                    1, int(threshold * policy.over_budget_fraction)
                )
                reason = "over_budget"
            if relaxed_depth >= threshold:
                self.downgrades[reason] = self.downgrades.get(reason, 0) + 1
                return AdmissionDecision(
                    DOWNGRADE, ServiceLevel.BEST_EFFORT, level, reason
                )
        self.admitted += 1
        return AdmissionDecision(ADMIT, level, level, "ok")

    def _reject(self, level: ServiceLevel, reason: str) -> AdmissionDecision:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        return AdmissionDecision(REJECT, level, level, reason)

    def record_queue_full(self) -> None:
        """Fold the enqueue-time back-pressure rejection into the
        verdict counters (it happens after `decide`, at hold time)."""
        self.rejections["queue_full"] = self.rejections.get("queue_full", 0) + 1

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready verdict counters (deterministic key order)."""
        return {
            "admitted": self.admitted,
            "rejected": {
                reason: self.rejections[reason]
                for reason in sorted(self.rejections)
            },
            "downgraded": {
                reason: self.downgrades[reason]
                for reason in sorted(self.downgrades)
            },
        }
