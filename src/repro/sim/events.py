"""Time-ordered event heap for the simulation kernel.

Events are ordered by ``(time, sequence)``: ties on time break in scheduling
order, which makes runs deterministic without requiring callbacks to be
comparable.  The heap holds ``(time, seq, event)`` tuples, so ordering is
a tuple compare and never reaches the event itself.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(eq=False)
class Event:
    """A single scheduled callback.

    Attributes:
        time: Simulated time at which the callback fires.
        seq: Monotonic tie-breaker assigned by the queue.
        callback: Zero-argument callable invoked when the event fires
            (bound arguments should be captured via ``functools.partial``
            or a closure).
        cancelled: Cancelled events stay in the heap but are skipped when
            popped; :meth:`EventQueue.cancel` flips this flag in O(1).
    """

    time: float
    seq: int
    callback: Callable[[], Any]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark this event so the queue skips it when it reaches the top."""
        self.cancelled = True


class WeakCallback:
    """A bound method that does not keep its instance alive.

    For self-rescheduling periodic ticks: were the heap to hold the bound
    method, ``simulator -> heap -> event -> method -> owner -> simulator``
    would be a cycle only the cycle collector can free.  Held this way the
    tick silently lapses once nothing else references its owner.
    ``func`` is the plain function, so the callback still reads as
    ``Owner.method`` to anything that introspects it.
    """

    __slots__ = ("func", "_owner")

    def __init__(self, method: Callable[[], Any]) -> None:
        self.func = method.__func__  # type: ignore[attr-defined]
        self._owner = weakref.ref(method.__self__)  # type: ignore[attr-defined]

    def __call__(self) -> None:
        owner = self._owner()
        if owner is not None:
            self.func(owner)


class EventQueue:
    """A min-heap of :class:`Event` objects with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        seq = next(self._counter)
        event = Event(time=time, seq=seq, callback=callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (no-op if already fired)."""
        event.cancel()
