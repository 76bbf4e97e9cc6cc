"""Discrete-event simulation kernel.

This package is a from-scratch, deterministic discrete-event simulation
(DES) kernel in the spirit of simpy / OMNeT++'s event scheduler.  The
original paper evaluated its protocols inside ACID Sim Tools, an OMNeT++
framework; this kernel provides the equivalent substrate: an event heap,
generator-coroutine processes, timeouts, interrupts, and shared
resources.

The central types are:

* :class:`~repro.sim.kernel.Simulator` -- the event loop.  ``sim.now`` is
  the current virtual time (seconds, float).
* :class:`~repro.sim.events.Event` -- a one-shot occurrence that a
  process can wait on.
* :class:`~repro.sim.process.Process` -- a generator wrapped as a
  simulation actor.  A process yields events (``Timeout``, another
  ``Process``, ``AnyOf``/``AllOf`` conditions, ...) and is resumed when
  they trigger.
* :class:`~repro.sim.resources.Resource` / ``Store`` / ``Queue`` --
  contended resources with FIFO service, used to model disks and CPUs.

Determinism: all tie-breaking uses a monotonically increasing sequence
number, so the same program produces the same trace on every run.
Randomness must come from :class:`~repro.sim.rng.RngRegistry` streams.
"""

from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import TIMED_OUT, AllOf, AnyOf, Condition, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.monitor import TraceLog, TraceRecord
from repro.sim.process import Process
from repro.sim.resources import PriorityResource, Queue, Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Queue",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "TIMED_OUT",
    "Timeout",
    "TraceLog",
    "TraceRecord",
]
