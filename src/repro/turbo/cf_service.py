"""The cloud-function service (paper §2).

CF workers are the elastic-but-expensive resource: hundreds can start
within ~a second, but the unit price is 9–24× the VM price and every
invocation pays a startup toll.  The service tracks active workers and
accumulates invocation accounting; the Coordinator decides *when* to use
it (only for CF-enabled queries while the VM cluster is overloaded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim import Simulator, Trace
from repro.turbo.config import CfConfig, VmConfig


@dataclass(frozen=True)
class CfInvocation:
    """Accounting record of one fan-out of CF workers."""

    query_id: str
    started_at: float
    num_workers: int
    duration_s: float
    worker_seconds: float
    provider_cost: float


class CfService:
    """Spawns ephemeral cloud-function workers and accounts for them."""

    def __init__(
        self,
        sim: Simulator,
        config: CfConfig,
        vm_config: VmConfig,
        trace: Trace | None = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self._vm_config = vm_config
        self.trace = trace if trace is not None else Trace()
        self._active_workers = 0
        self._invocations: list[CfInvocation] = []
        # A running total, not ``sum()`` over the invocations: the metrics
        # exposition prints it to the last digit, and ``sum()`` of floats
        # is compensated from Python 3.12 on while ``+=`` is not.
        self._worker_seconds = 0.0

    @property
    def config(self) -> CfConfig:
        return self._config

    @property
    def active_workers(self) -> int:
        return self._active_workers

    @property
    def invocations(self) -> list[CfInvocation]:
        return list(self._invocations)

    def total_worker_seconds(self) -> float:
        return self._worker_seconds

    def provider_cost(self) -> float:
        return sum(invocation.provider_cost for invocation in self._invocations)

    def invoke(
        self,
        query_id: str,
        num_workers: int,
        duration_s: float,
        on_complete: Callable[[], None],
    ) -> CfInvocation:
        """Launch ``num_workers`` CFs for ``duration_s`` simulated seconds.

        The duration (already including CF startup and merge overhead, see
        :meth:`~repro.turbo.cost.CostModel.cf_execution`) is charged to
        every worker — AWS bills function time per invocation, which is
        why CF acceleration has a price floor even for tiny queries.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        worker_seconds = num_workers * duration_s
        invocation = CfInvocation(
            query_id=query_id,
            started_at=self._sim.now,
            num_workers=num_workers,
            duration_s=duration_s,
            worker_seconds=worker_seconds,
            provider_cost=worker_seconds
            * self._config.price_per_worker_s(self._vm_config),
        )
        self._invocations.append(invocation)
        self._active_workers += num_workers
        self._worker_seconds += worker_seconds
        self.trace.record("cf.active_workers", self._sim.now, self._active_workers)

        def finish() -> None:
            self._active_workers -= num_workers
            self.trace.record(
                "cf.active_workers", self._sim.now, self._active_workers
            )
            on_complete()

        self._sim.schedule(duration_s, finish)
        return invocation

    def provisioning_curve(self, demand: int, horizon_s: float = 5.0) -> list[tuple[float, int]]:
        """Workers available over time after a step demand of ``demand``.

        Used by experiment C3 to contrast CF elasticity (full fleet in
        ``startup_s``) against the VM cluster's minutes-long ramp.
        """
        return [(0.0, 0), (self._config.startup_s, demand), (horizon_s, demand)]
