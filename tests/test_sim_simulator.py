"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, WeakCallback
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pop_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append(3))
        queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == [1, 2, 3]

    def test_ties_break_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(1.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_events_are_never_compared(self):
        """The heap orders ``(time, seq, event)`` tuples; ``seq`` is
        unique, so the event itself is never compared (it cannot be)."""
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        with pytest.raises(TypeError):
            first < second
        assert queue.pop() is first and queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None)
        drop = queue.push(0.5, lambda: None)
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop() is keep
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        drop = queue.push(0.5, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(drop)
        assert queue.peek_time() == 2.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert queue.peek_time() is None
        assert len(queue) == 0


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [7.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(5.0)
        assert fired == [5]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cancel_scheduled_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_step_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(RuntimeError, match="feedback loop"):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(str(exc))

        sim.schedule(1.0, reenter)
        sim.run()
        assert errors and "reentrant" in errors[0]

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(event)
        assert sim.pending_events == 1


class _Ticker:
    """A component with a self-rescheduling periodic tick."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = 0
        self.callback = WeakCallback(self.tick)
        sim.schedule(1.0, self.callback)

    def tick(self):
        self.sim.schedule(1.0, self.callback)
        self.fired += 1


class TestWeakCallback:
    def test_fires_like_the_bound_method_while_the_owner_lives(self):
        sim = Simulator()
        ticker = _Ticker(sim)
        sim.run_until(3.5)
        assert ticker.fired == 3
        assert sim.pending_events == 1

    def test_lapses_silently_once_the_owner_is_gone(self):
        sim = Simulator()
        ticker = _Ticker(sim)
        sim.run_until(1.5)
        del ticker  # the heap's pending tick was the only other holder
        sim.run_until(10.0)  # fires into nothing; does not reschedule
        assert sim.pending_events == 0

    def test_names_the_plain_function_for_introspection(self):
        """Anything that labels callbacks by ``callback.func`` (as it would
        a ``functools.partial``) must still see ``Owner.method``."""
        callback = _Ticker(Simulator()).callback
        assert callback.func is _Ticker.tick
        assert callback.func.__qualname__ == "_Ticker.tick"

