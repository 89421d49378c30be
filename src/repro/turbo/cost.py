"""Execution-time and dollar-cost model.

Queries are *really executed* (the result rows are exact); what the
simulation models is how long that execution takes on each resource type
and what it costs.  Durations are derived from the executor's statistics
(bytes scanned, rows processed), so selective queries are cheap and wide
scans are slow — the same first-order behaviour the paper's engine has.

Two kinds of money appear, deliberately separate:

* **provider cost** — worker-seconds × unit price; what the operator pays
  AWS.  The CF/VM unit-price ratio (§2: 9–24×) and VM amortization live
  here; experiment C2 measures it.
* **user price** — $/TB-scan per service level (§3.2: $5 / $1 / $0.5);
  what the user is billed.  Experiment C1 measures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.executor import QueryStats
from repro.turbo.config import TurboConfig

TB = 1024**4


@dataclass(frozen=True)
class VmEstimate:
    """Modelled single-VM execution of one query."""

    duration_s: float
    worker_seconds: float
    provider_cost: float


@dataclass(frozen=True)
class CfEstimate:
    """Modelled CF fan-out execution of one query's sub-plan."""

    num_workers: int
    duration_s: float
    worker_seconds: float
    provider_cost: float


@dataclass(frozen=True)
class CostAttribution:
    """One query's billed price decomposed by the resource that earned it.

    The profiler distributes each component over the query's profile tree
    by the resource it measures: ``bandwidth_dollars`` over self bytes
    scanned, ``compute_dollars`` over self execution time, and
    ``request_dollars`` over self GET counts; ``fixed_dollars`` (startup
    and merge overheads that no operator caused) stays at the root.  The
    four components always sum to ``billed`` — attribution re-slices the
    bill, it never changes it.
    """

    billed: float
    venue: str  # "vm" | "cf" | "none"
    bandwidth_dollars: float
    compute_dollars: float
    request_dollars: float
    fixed_dollars: float

    @property
    def total(self) -> float:
        return (
            self.bandwidth_dollars
            + self.compute_dollars
            + self.request_dollars
            + self.fixed_dollars
        )


@dataclass(frozen=True)
class MeterReading:
    """One query's bill as the metering ledger records it: its exact
    integer-nanodollar decomposition by resource.

    ``axes`` maps resource axis (bandwidth/compute/requests/fixed) to
    nanodollars and always sums to ``billed_nanodollars`` — the split
    comes from the profiler's shared largest-remainder helper, so the
    ledger, the statement store, and the flame graphs agree to the
    nanodollar by construction.
    """

    billed_nanodollars: int
    axes: dict[str, int]


class CostModel:
    """Turns executor statistics into durations and dollars."""

    def __init__(self, config: TurboConfig) -> None:
        from repro.core.service_levels import ServiceLevel

        self._config = config
        prices = config.prices
        #: $/TB by level value (a str key hashes in C, an enum member in
        #: Python).
        self._price_per_tb = {
            ServiceLevel.IMMEDIATE.value: prices.immediate_per_tb,
            ServiceLevel.RELAXED.value: prices.relaxed_per_tb,
            ServiceLevel.BEST_EFFORT.value: prices.best_effort_per_tb,
        }

    def _inflated(self, stats: QueryStats) -> tuple[float, float]:
        """(bytes, rows) after applying the workload inflation factor."""
        factor = self._config.data_inflation
        return stats.bytes_scanned * factor, stats.rows_scanned * factor

    # -- durations -------------------------------------------------------------

    def vm_execution(self, stats: QueryStats) -> VmEstimate:
        """One query on one VM slot."""
        vm = self._config.vm
        num_bytes, num_rows = self._inflated(stats)
        duration = (
            vm.startup_overhead_s
            + num_bytes / vm.scan_throughput_bytes_per_s
            + num_rows / vm.row_throughput_rows_per_s
        )
        worker_seconds = duration / vm.slots_per_worker
        return VmEstimate(
            duration_s=duration,
            worker_seconds=worker_seconds,
            provider_cost=worker_seconds * vm.price_per_worker_s,
        )

    def cf_execution(self, stats: QueryStats) -> CfEstimate:
        """One query fanned out across CF workers.

        Parallelism follows the scan size (one worker per
        ``bytes_per_worker``); every worker is billed for the whole
        invocation including startup, which is why small queries on CF
        carry a fixed-cost penalty.
        """
        cf = self._config.cf
        num_bytes, num_rows = self._inflated(stats)
        num_workers = max(
            1,
            min(
                cf.max_workers_per_query,
                math.ceil(num_bytes / cf.bytes_per_worker),
            ),
        )
        work = (
            num_bytes / cf.scan_throughput_bytes_per_s
            + num_rows / cf.row_throughput_rows_per_s
        )
        duration = cf.startup_s + work / num_workers + cf.merge_overhead_s
        worker_seconds = duration * num_workers
        return CfEstimate(
            num_workers=num_workers,
            duration_s=duration,
            worker_seconds=worker_seconds,
            provider_cost=worker_seconds
            * cf.price_per_worker_s(self._config.vm),
        )

    # -- attribution -----------------------------------------------------------

    def attribution(
        self,
        stats: QueryStats,
        venue: str,
        billed: float,
        get_price_per_1000: float = 0.0004,
    ) -> CostAttribution:
        """Split ``billed`` into per-resource components (profiler input).

        The split weights are the *provider-side* costs of each resource:
        the venue's modelled duration decomposes into a byte term, a row
        term, and fixed startup/merge overhead (each priced at the venue's
        worker rate — CF GB-s or VM-s), and GET requests carry the object
        store's request price.  The billed price is then divided in
        proportion to those weights, so a scan-bound query attributes its
        bill to bandwidth while a join-heavy one attributes it to compute.
        Weights that are all zero (e.g. a pure EXPLAIN) put the whole bill
        in ``fixed_dollars``.
        """
        num_bytes, num_rows = self._inflated(stats)
        if venue == "cf":
            cf = self._config.cf
            rate = cf.price_per_worker_s(self._config.vm)
            bytes_s = num_bytes / cf.scan_throughput_bytes_per_s
            rows_s = num_rows / cf.row_throughput_rows_per_s
            # Startup is billed once per worker; merge once per query.
            workers = self.cf_execution(stats).num_workers
            fixed_s = cf.startup_s * workers + cf.merge_overhead_s
        elif venue == "vm":
            vm = self._config.vm
            rate = vm.price_per_worker_s / vm.slots_per_worker
            bytes_s = num_bytes / vm.scan_throughput_bytes_per_s
            rows_s = num_rows / vm.row_throughput_rows_per_s
            fixed_s = vm.startup_overhead_s
        else:
            return CostAttribution(billed, venue, 0.0, 0.0, 0.0, billed)
        weights = {
            "bandwidth": bytes_s * rate,
            "compute": rows_s * rate,
            "fixed": fixed_s * rate,
            "requests": stats.get_requests * get_price_per_1000 / 1000.0,
        }
        total = sum(weights.values())
        if total <= 0.0:
            return CostAttribution(billed, venue, 0.0, 0.0, 0.0, billed)
        bandwidth = billed * weights["bandwidth"] / total
        compute = billed * weights["compute"] / total
        requests = billed * weights["requests"] / total
        # The fixed component absorbs the float residue so the four parts
        # sum to the bill by construction.
        fixed = billed - bandwidth - compute - requests
        return CostAttribution(billed, venue, bandwidth, compute, requests, fixed)

    def meter(
        self,
        stats: QueryStats,
        venue: str,
        billed: float,
        get_price_per_1000: float = 0.0004,
    ) -> MeterReading:
        """The billing point the metering ledger consumes: the exact
        integer axis split of ``billed`` over its attribution."""
        from repro.obs.profiler import AXES, split_attribution_nanodollars

        attribution = self.attribution(stats, venue, billed, get_price_per_1000)
        billed_nano, pools = split_attribution_nanodollars(billed, attribution)
        return MeterReading(
            billed_nanodollars=billed_nano, axes=dict(zip(AXES, pools))
        )

    # -- user-facing prices ------------------------------------------------------

    def price_per_tb(self, level: "ServiceLevel") -> float:  # noqa: F821
        return self._price_per_tb[level._value_]

    def user_price(self, stats: QueryStats, level: "ServiceLevel") -> float:  # noqa: F821
        """The bill for one query: TB scanned × the level's rate (§3.2).
        Billing uses the same inflated byte count the durations use."""
        num_bytes, _ = self._inflated(stats)
        return (num_bytes / TB) * self.price_per_tb(level)
