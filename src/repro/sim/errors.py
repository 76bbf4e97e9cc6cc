"""Exception types used by the simulation kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class StopSimulation(Exception):
    """Raised (or thrown into the run loop) to stop :meth:`Simulator.run`.

    Carries an optional ``value`` that becomes the return value of
    ``Simulator.run``.
    """

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class EventRefusedError(SimulationError):
    """An operation was attempted on an event in an illegal state."""
