"""The auto-scaled VM cluster (paper §2 and §3.1).

The cluster executes query tasks in worker slots, queues tasks when full,
and runs the paper's watermark autoscaler:

* **scale-out** — when per-worker query concurrency exceeds the high
  watermark (default 5), new workers are requested; they become usable
  only after ``scale_out_lag_s`` (1–2 simulated minutes), which is the
  elasticity gap CF acceleration papers over.
* **scale-in** — when the *average* per-worker concurrency over a trailing
  window stays below the low watermark (default 0.75), idle workers are
  released gracefully.  A cooldown implements the lazy scale-in policy of
  footnote 2 (avoid scaling in right before the next spike).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.errors import ScalingError
from repro.sim import Simulator, Trace, WeakCallback
from repro.turbo.config import VmConfig


@dataclass(frozen=True)
class ScalingDecision:
    """Audit record of one autoscaler action (scale-out or scale-in).

    Exactly one record is appended per scale event (which is what
    ``pixels_vm_watermark_crossings_total`` counts), carrying the
    metric values the decision was made on — so a burn-rate alert at
    time *t* can be joined to the scaling decision that caused (or
    failed to prevent) it.
    """

    time: float
    action: str  # "scale_out" | "scale_in"
    watermark: str  # "high" | "low"
    trigger_value: float  # per-worker concurrency the rule evaluated
    threshold: float  # the watermark it crossed
    concurrency: int
    queue_depth: int
    workers_before: int
    pending_before: int  # workers already requested but not yet arrived
    delta: int  # +requested / -released
    workers_target: int  # desired cluster size after the action

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "action": self.action,
            "watermark": self.watermark,
            "trigger_value": self.trigger_value,
            "threshold": self.threshold,
            "concurrency": self.concurrency,
            "queue_depth": self.queue_depth,
            "workers_before": self.workers_before,
            "pending_before": self.pending_before,
            "delta": self.delta,
            "workers_target": self.workers_target,
        }


@dataclass
class VmWorker:
    """One VM: a fixed number of query slots plus uptime accounting."""

    worker_id: int
    started_at: float
    slots: int
    busy_slots: int = 0
    stopping: bool = False
    stopped_at: float | None = None

    @property
    def is_active(self) -> bool:
        return self.stopped_at is None

    def free_slots(self) -> int:
        if self.stopping or not self.is_active:
            return 0
        return self.slots - self.busy_slots

    def uptime(self, now: float) -> float:
        end = self.stopped_at if self.stopped_at is not None else now
        return end - self.started_at


@dataclass
class VmTask:
    """A unit of VM work: started by the cluster, finished by the caller."""

    task_id: str
    on_start: Callable[["VmWorker"], None]
    enqueued_at: float = 0.0


class VmCluster:
    """Worker pool + FIFO task queue + watermark autoscaler."""

    def __init__(
        self,
        sim: Simulator,
        config: VmConfig,
        trace: Trace | None = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self.trace = trace if trace is not None else Trace()
        self._workers: list[VmWorker] = []
        self._queue: list[VmTask] = []
        self._running_tasks = 0
        self._next_worker_id = 0
        self._pending_arrivals = 0
        self._last_scale_event = -float("inf")
        self._retired_worker_seconds = 0.0
        #: Autoscaler decision audit log, which the scale-event counts
        #: count; always recorded (a list append per scale event, which
        #: is rare and deterministic).
        self.audit_log: list[ScalingDecision] = []
        for _ in range(config.min_workers):
            self._add_worker()
        self._record_gauges()
        self._autoscaler_enabled = True
        # Held weakly: the pending tick must not pin a finished replay.
        self._evaluate_callback = WeakCallback(self._evaluate)
        sim.schedule(config.evaluation_interval_s, self._evaluate_callback)

    # -- public state -------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.is_active)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def running_tasks(self) -> int:
        return self._running_tasks

    @property
    def concurrency(self) -> int:
        """Query concurrency as the paper uses it: running + waiting."""
        return self._running_tasks + len(self._queue)

    @property
    def concurrency_per_worker(self) -> float:
        return self.concurrency / max(self.num_workers, 1)

    @property
    def scale_out_events(self) -> int:
        return sum(d.action == "scale_out" for d in self.audit_log)

    @property
    def scale_in_events(self) -> int:
        return sum(d.action == "scale_in" for d in self.audit_log)

    def has_free_slot(self) -> bool:
        return any(worker.free_slots() > 0 for worker in self._workers)

    def total_worker_seconds(self, now: float | None = None) -> float:
        """Cumulative VM uptime — the basis of provider cost."""
        at = self._sim.now if now is None else now
        running = sum(w.uptime(at) for w in self._workers if w.is_active)
        return self._retired_worker_seconds + running

    def provider_cost(self, now: float | None = None) -> float:
        return self.total_worker_seconds(now) * self._config.price_per_worker_s

    # -- task lifecycle ------------------------------------------------------------

    def submit(self, task: VmTask) -> bool:
        """Run ``task`` now if a slot is free, else queue it (FIFO).

        Returns True if the task started immediately.
        """
        task.enqueued_at = self._sim.now
        worker = self._pick_worker()
        if worker is not None:
            self._start_task(task, worker)
            self._record_gauges()
            return True
        self._queue.append(task)
        self._record_gauges()
        return False

    def release(self, worker: VmWorker) -> None:
        """Signal task completion on ``worker``; frees the slot and drains
        the queue."""
        if worker.busy_slots <= 0:
            raise ScalingError(f"worker {worker.worker_id} has no busy slots")
        worker.busy_slots -= 1
        self._running_tasks -= 1
        if worker.stopping and worker.busy_slots == 0:
            self._stop_worker(worker)
        self._drain_queue()
        self._record_gauges()

    def _pick_worker(self) -> VmWorker | None:
        candidates = [w for w in self._workers if w.free_slots() > 0]
        if not candidates:
            return None
        # Least-loaded first spreads queries across the cluster.
        return min(candidates, key=lambda w: w.busy_slots)

    def _start_task(self, task: VmTask, worker: VmWorker) -> None:
        worker.busy_slots += 1
        self._running_tasks += 1
        task.on_start(worker)

    def _drain_queue(self) -> None:
        while self._queue:
            worker = self._pick_worker()
            if worker is None:
                return
            task = self._queue.pop(0)
            self._start_task(task, worker)

    def cancel_task(self, task_id: str) -> bool:
        """Remove a not-yet-started task from the queue.

        Returns False when no queued task has that id (it already started
        or never existed) — the caller then cancels at the running level.
        """
        for index, task in enumerate(self._queue):
            if task.task_id == task_id:
                del self._queue[index]
                self._record_gauges()
                return True
        return False

    def fail_worker(self, worker: VmWorker) -> None:
        """Retire a crashed worker and keep the fleet above the minimum.

        The caller releases its own slot first; the worker then drains any
        remaining tasks and stops.  If the loss would leave fewer than
        ``min_workers`` healthy-or-incoming workers, a replacement is
        requested — it arrives only after the usual boot lag, which is why
        crashes hurt latency even with retries.
        """
        if not worker.stopping:
            worker.stopping = True
            if worker.busy_slots == 0:
                self._stop_worker(worker)
        healthy = sum(
            1 for w in self._workers if w.is_active and not w.stopping
        )
        deficit = self._config.min_workers - healthy - self._pending_arrivals
        if deficit > 0:
            self._pending_arrivals += deficit
            self.trace.record("vm.replacement", self._sim.now, deficit)
            self._sim.schedule(
                self._config.scale_out_lag_s, lambda: self._arrive(deficit)
            )
        self._record_gauges()

    # -- scaling -------------------------------------------------------------------

    def _add_worker(self) -> VmWorker:
        worker = VmWorker(
            worker_id=self._next_worker_id,
            started_at=self._sim.now,
            slots=self._config.slots_per_worker,
        )
        self._next_worker_id += 1
        self._workers.append(worker)
        return worker

    def _stop_worker(self, worker: VmWorker) -> None:
        worker.stopped_at = self._sim.now
        self._retired_worker_seconds += worker.uptime(self._sim.now)

    def disable_autoscaler(self) -> None:
        """Freeze the cluster at its current size (used by baselines)."""
        self._autoscaler_enabled = False

    @property
    def target_per_worker(self) -> float:
        """Desired steady-state concurrency per worker: the midpoint of the
        watermark band."""
        return (self._config.high_watermark + self._config.low_watermark) / 2

    def _evaluate(self) -> None:
        """One autoscaler tick."""
        self._sim.schedule(
            self._config.evaluation_interval_s, self._evaluate_callback
        )
        self._record_gauges()
        if not self._autoscaler_enabled:
            return
        now = self._sim.now
        per_worker = self.concurrency / max(self.num_workers + self._pending_arrivals, 1)
        # ">=", not ">": the query server admits relaxed queries only while
        # strictly below the high watermark, so sustained demand parks the
        # cluster exactly *at* the watermark — that state must scale out,
        # or held queries would wait forever without ever triggering it.
        if per_worker >= self._config.high_watermark:
            self._scale_out()
            return
        window_start = max(0.0, now - self._config.scale_in_window_s)
        avg_concurrency = self.trace.time_weighted_mean(
            "vm.concurrency", window_start, now
        )
        avg_per_worker = avg_concurrency / max(self.num_workers, 1)
        if (
            avg_per_worker < self._config.low_watermark
            and self.num_workers > self._config.min_workers
            and now - self._last_scale_event >= self._config.scale_in_cooldown_s
            and now >= self._config.scale_in_window_s
        ):
            self._scale_in(avg_concurrency)

    def _scale_out(self) -> None:
        desired = max(
            self._config.min_workers,
            -(-self.concurrency // max(int(self.target_per_worker), 1)),
        )
        desired = min(desired, self._config.max_workers)
        to_add = desired - self.num_workers - self._pending_arrivals
        if to_add <= 0:
            return
        self._last_scale_event = self._sim.now
        pending_before = self._pending_arrivals
        self.audit_log.append(
            ScalingDecision(
                time=self._sim.now,
                action="scale_out",
                watermark="high",
                trigger_value=self.concurrency
                / max(self.num_workers + pending_before, 1),
                threshold=self._config.high_watermark,
                concurrency=self.concurrency,
                queue_depth=len(self._queue),
                workers_before=self.num_workers,
                pending_before=pending_before,
                delta=to_add,
                workers_target=desired,
            )
        )
        self._pending_arrivals += to_add
        self.trace.record("vm.scale_out", self._sim.now, to_add)
        self._sim.schedule(
            self._config.scale_out_lag_s, lambda: self._arrive(to_add)
        )

    def _arrive(self, count: int) -> None:
        """Workers requested ``scale_out_lag_s`` ago come online."""
        self._pending_arrivals -= count
        for _ in range(count):
            if self.num_workers < self._config.max_workers:
                self._add_worker()
        self._drain_queue()
        self._record_gauges()

    def _scale_in(self, avg_concurrency: float) -> None:
        desired = max(
            self._config.min_workers,
            -(-int(avg_concurrency) // max(int(self.target_per_worker), 1)),
        )
        to_remove = self.num_workers - desired
        if to_remove <= 0:
            return
        self._last_scale_event = self._sim.now
        self.audit_log.append(
            ScalingDecision(
                time=self._sim.now,
                action="scale_in",
                watermark="low",
                trigger_value=avg_concurrency / max(self.num_workers, 1),
                threshold=self._config.low_watermark,
                concurrency=self.concurrency,
                queue_depth=len(self._queue),
                workers_before=self.num_workers,
                pending_before=self._pending_arrivals,
                delta=-to_remove,
                workers_target=desired,
            )
        )
        self.trace.record("vm.scale_in", self._sim.now, to_remove)
        # Prefer idle workers; mark busy ones to stop when they drain.
        removable = sorted(
            (w for w in self._workers if w.is_active and not w.stopping),
            key=lambda w: w.busy_slots,
        )
        for worker in removable[:to_remove]:
            if self.num_workers <= self._config.min_workers:
                break
            worker.stopping = True
            if worker.busy_slots == 0:
                self._stop_worker(worker)
        self._record_gauges()

    def export_audit_jsonl(self) -> str:
        """The scaling-decision log, one JSON object per line, in
        decision order — deterministic across same-seed runs."""
        lines = [
            json.dumps(decision.to_dict(), sort_keys=True)
            for decision in self.audit_log
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def _record_gauges(self) -> None:
        """Feed the ``sim.Trace`` series the autoscaler itself reads."""
        now = self._sim.now
        self.trace.record("vm.workers", now, self.num_workers)
        self.trace.record("vm.concurrency", now, self.concurrency)
        self.trace.record("vm.queue", now, len(self._queue))
