"""Series derived at scrape time, summed over every component feeding them.

Hold-queue depths, the venues' worker and invocation counts, buffer-pool
occupancy and the object store's counters are state other components
already keep; a collector copies it into the registry just before each
render.  Several query servers and coordinators can share one registry
(a :class:`~repro.PixelsDB` with two schemas builds one of each per
schema), so each group of series has one collector per registry — the
recorders find it through :meth:`MetricsRegistry.shared` — and it
reports the sum over all of them, reading each distinct object store
once.

Three traps that only a byte compare of the exports catches: a series
has no sample before its first event (never ``set_total(0)`` a
``pixels_cf_*`` series or a ``watermark=`` label); event counts are
floats, as ``Counter.inc`` would have made them (the time-series export
prints ``14.0`` and ``14`` differently); and CF worker-seconds come from
each service's running total, not a re-summed list of invocations.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.core.scheduler import HELD_LEVELS, LevelScheduler
from repro.obs.metrics import SCHEDULER_QUEUE_DEPTH_METRIC, MetricsRegistry
from repro.storage.object_store import StorageMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.cache import BufferPool
    from repro.storage.object_store import ObjectStore
    from repro.turbo.cf_service import CfService
    from repro.turbo.vm_cluster import VmCluster


class HeldQueueSeries:
    """The held-query depths of every query server's scheduler."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._schedulers: list[LevelScheduler] = []
        self._m_queue_depth = registry.gauge(
            "pixels_server_queue_depth",
            "Queries held in the server's per-level queues",
        )
        self._m_tenant_queue_depth = registry.gauge(
            SCHEDULER_QUEUE_DEPTH_METRIC,
            "Held queries per tenant and service level "
            "(label sets capped by the cardinality guard)",
        )
        #: (tenant, level) series last reported non-zero — zeroed on the
        #: next collection once the tenant drains, so the gauge never
        #: shows a stale depth.
        self._depth_series: set[tuple[str, str]] = set()
        registry.add_collector(self._collect)

    def add(self, scheduler: LevelScheduler) -> None:
        self._schedulers.append(scheduler)

    def _collect(self) -> None:
        live: set[tuple[str, str]] = set()
        for level in HELD_LEVELS:
            self._m_queue_depth.set(
                sum(s.depth(level) for s in self._schedulers), level=level.value
            )
            depths: dict[str, int] = {}
            for scheduler in self._schedulers:
                for tenant, depth in scheduler.queue(level).depths().items():
                    depths[tenant] = depths.get(tenant, 0) + depth
            for tenant in sorted(depths):
                self._m_tenant_queue_depth.set(
                    depths[tenant], tenant=tenant, level=level.value
                )
                live.add((tenant, level.value))
        for tenant, level_name in self._depth_series - live:
            self._m_tenant_queue_depth.set(0, tenant=tenant, level=level_name)
        self._depth_series = live


class VenueSeries:
    """The VM and CF venue series of every coordinator, and the storage
    and VM buffer-pool series under them.  It holds each coordinator's
    venues, store and pool, not the coordinator, and its registry only
    weakly: the coordinator holds the registry, the registry holds the
    series' collectors, and neither may close a cycle."""

    def __init__(self, registry: MetricsRegistry) -> None:
        # Weakly: the registry holds this series' collectors.
        self._registry = weakref.ref(registry)
        self._vms: list[VmCluster] = []
        self._cfs: list[CfService] = []
        self._stores: list[ObjectStore] = []
        self._pools: list[BufferPool] = []
        self._m_vm_workers = registry.gauge(
            "pixels_vm_workers", "Active VM workers"
        )
        self._m_vm_queue = registry.gauge(
            "pixels_vm_queue_depth", "Tasks waiting for a VM slot"
        )
        self._m_vm_concurrency = registry.gauge(
            "pixels_vm_concurrency", "Running + queued VM tasks"
        )
        self._m_vm_watermark = registry.counter(
            "pixels_vm_watermark_crossings_total",
            "Autoscaler actions by watermark crossed",
        )
        self._m_cf_invocations = registry.counter(
            "pixels_cf_invocations_total", "CF fan-outs launched"
        )
        self._m_cf_worker_seconds = registry.counter(
            "pixels_cf_worker_seconds_total", "Billed CF worker-seconds"
        )
        self._m_cf_active = registry.gauge(
            "pixels_cf_active_workers", "Currently running CF workers"
        )
        registry.add_collector(self._collect_venue_metrics)
        registry.add_collector(self._collect_storage_metrics)

    def add(
        self,
        vm_cluster: "VmCluster",
        cf_service: "CfService",
        store: "ObjectStore",
        vm_buffer_pool: "BufferPool | None",
    ) -> None:
        """One coordinator's venues, object store and VM buffer pool."""
        self._vms.append(vm_cluster)
        self._cfs.append(cf_service)
        self._stores.append(store)
        if vm_buffer_pool is not None:
            self._pools.append(vm_buffer_pool)

    def _collect_venue_metrics(self) -> None:
        """The VM gauges exist from the first scrape, each ``watermark=``
        label from the first crossing, the three CF series from the first
        invocation."""
        vms, cfs = self._vms, self._cfs
        self._m_vm_workers.set(sum(vm.num_workers for vm in vms))
        self._m_vm_queue.set(sum(vm.queue_length for vm in vms))
        self._m_vm_concurrency.set(sum(vm.concurrency for vm in vms))
        scale_outs = sum(vm.scale_out_events for vm in vms)
        if scale_outs:
            self._m_vm_watermark.set_total(float(scale_outs), watermark="high")
        scale_ins = sum(vm.scale_in_events for vm in vms)
        if scale_ins:
            self._m_vm_watermark.set_total(float(scale_ins), watermark="low")
        invocations = sum(len(cf.invocations) for cf in cfs)
        if invocations:
            self._m_cf_invocations.set_total(float(invocations))
            self._m_cf_worker_seconds.set_total(
                sum(cf.total_worker_seconds() for cf in cfs)
            )
            self._m_cf_active.set(sum(cf.active_workers for cf in cfs))

    def _collect_storage_metrics(self) -> None:
        """Mirror storage/cache counters into the registry at scrape time."""
        registry = self._registry()
        metrics = StorageMetrics()
        stores = {id(store): store for store in self._stores}
        for store in stores.values():
            metrics.merge(store.metrics)
        store_total = registry.counter(
            "pixels_store_requests_total", "Object store requests by kind"
        )
        store_total.set_total(metrics.get_requests, kind="get")
        store_total.set_total(metrics.put_requests, kind="put")
        store_bytes = registry.counter(
            "pixels_store_bytes_total", "Object store payload bytes by direction"
        )
        store_bytes.set_total(metrics.bytes_read, direction="read")
        store_bytes.set_total(metrics.bytes_written, direction="written")
        registry.counter(
            "pixels_logical_bytes_scanned_total",
            "Logical (billed) bytes scanned across every reader",
        ).set_total(metrics.logical_bytes_scanned)
        cache_events = registry.counter(
            "pixels_cache_events_total", "Buffer-pool events by kind and outcome"
        )
        cache_events.set_total(metrics.footer_cache_hits, kind="footer", outcome="hit")
        cache_events.set_total(
            metrics.footer_cache_misses, kind="footer", outcome="miss"
        )
        cache_events.set_total(metrics.chunk_cache_hits, kind="chunk", outcome="hit")
        cache_events.set_total(metrics.chunk_cache_misses, kind="chunk", outcome="miss")
        cache_events.set_total(
            metrics.chunk_cache_evictions, kind="chunk", outcome="eviction"
        )
        pools = self._pools
        if pools:
            registry.gauge(
                "pixels_vm_pool_chunk_bytes", "VM buffer pool occupancy in bytes"
            ).set(sum(pool.cached_chunk_bytes for pool in pools))
            registry.gauge(
                "pixels_vm_pool_entries", "VM buffer pool entries by kind"
            ).set(sum(pool.cached_footers for pool in pools), kind="footer")
            registry.gauge("pixels_vm_pool_entries", "").set(
                sum(pool.cached_chunks for pool in pools), kind="chunk"
            )
