"""Discrete-event simulation kernel.

The Turbo runtime reproduces the paper's elasticity and pricing behaviour on
simulated time: VM scale-out takes 1-2 simulated minutes, CF workers spin up
in simulated milliseconds, and queries are charged simulated
resource-seconds.  This package provides the kernel those components run on:

* :class:`~repro.sim.simulator.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue` —
  the time-ordered event heap; :class:`~repro.sim.events.WeakCallback` is
  how a periodic tick sits on it without pinning its owner.
* :class:`~repro.sim.rng.RngRegistry` — named, deterministic random streams
  so that two runs with the same seed are bit-identical regardless of how
  components interleave their draws.
* :class:`~repro.sim.trace.Trace` — time-series metric recording used by the
  benchmark harness to plot scaling traces and concurrency curves.
"""

from repro.sim.events import Event, EventQueue, WeakCallback
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace, TracePoint

__all__ = [
    "Event",
    "EventQueue",
    "RngRegistry",
    "Simulator",
    "Trace",
    "TracePoint",
    "WeakCallback",
]
