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
from typing import NamedTuple

from repro.engine.executor import QueryStats
from repro.obs.profiler import AXES, NANOS_PER_DOLLAR, _distribute
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


class MeterReading(NamedTuple):
    """One query's bill: the price, its exact integer nanodollars, and
    their decomposition by the resource that earned them.

    ``axes`` maps resource axis (bandwidth/compute/requests/fixed) to
    nanodollars and always sums to ``billed_nanodollars``.  The
    coordinator takes one as each execution window opens; a successful
    execution's last one is its bill (``ServerQuery.bill``), and the
    ledger, the statement store, the activity registry and the profiler
    all read that record, so they agree to the nanodollar by construction.
    """

    price: float
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

    # -- the bill --------------------------------------------------------------

    def meter(
        self,
        stats: QueryStats,
        venue: str,
        level: "ServiceLevel",  # noqa: F821
        get_price_per_1000: float = 0.0004,
    ) -> MeterReading:
        """The one bill of a query: its price at ``level``, rounded once
        to integer nanodollars and split once over the resource axes."""
        price = self.user_price(stats, level)
        axes = self.attribution(stats, venue, price, get_price_per_1000)
        return MeterReading(price, sum(axes.values()), axes)

    def attribution(
        self,
        stats: QueryStats,
        venue: str,
        price: float,
        get_price_per_1000: float = 0.0004,
    ) -> dict[str, int]:
        """``price`` in integer nanodollars (``round(price × 1e9)``),
        split exactly over the resource axes.

        The split weights are the *provider-side* costs of each resource:
        the venue's modelled duration decomposes into a byte term, a row
        term, and fixed startup/merge overhead (each priced at the venue's
        worker rate — CF GB-s or VM-s), and GET requests carry the object
        store's request price.  ``price`` is divided in proportion to
        those weights, so a scan-bound query attributes its bill to
        bandwidth while a join-heavy one attributes it to compute, and the
        integer bill follows those dollar shares by largest remainder.
        Weights that are all zero (e.g. a pure EXPLAIN, or no venue) put
        the whole bill in ``fixed``; the four axes always sum to the bill.
        """
        billed = round(price * NANOS_PER_DOLLAR)
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
            return _all_fixed(billed)
        weights = {
            "bandwidth": bytes_s * rate,
            "compute": rows_s * rate,
            "fixed": fixed_s * rate,
            "requests": stats.get_requests * get_price_per_1000 / 1000.0,
        }
        total = sum(weights.values())
        if total <= 0.0:
            return _all_fixed(billed)
        bandwidth = price * weights["bandwidth"] / total
        compute = price * weights["compute"] / total
        requests = price * weights["requests"] / total
        # The fixed share absorbs the float residue; clamping keeps a
        # -1e-18 residue from flipping a sign.
        fixed = price - bandwidth - compute - requests
        pools = _distribute(
            billed,
            [max(0.0, share) for share in (bandwidth, compute, requests, fixed)],
        )
        if sum(pools) != billed:
            return _all_fixed(billed)
        return dict(zip(AXES, pools))

    # -- user-facing prices ------------------------------------------------------

    def price_per_tb(self, level: "ServiceLevel") -> float:  # noqa: F821
        return self._price_per_tb[level._value_]

    def user_price(self, stats: QueryStats, level: "ServiceLevel") -> float:  # noqa: F821
        """The bill for one query: TB scanned × the level's rate (§3.2).
        Billing uses the same inflated byte count the durations use."""
        num_bytes, _ = self._inflated(stats)
        return (num_bytes / TB) * self.price_per_tb(level)


def _all_fixed(billed_nanodollars: int) -> dict[str, int]:
    """The whole bill in the fixed axis: no resource earned it."""
    return {axis: 0 for axis in AXES} | {"fixed": billed_nanodollars}
