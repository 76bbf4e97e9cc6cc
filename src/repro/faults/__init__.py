"""Fault injection: a fault is data, a plan fires it.

* :class:`~repro.faults.injector.Fault` -- one frozen, serialisable
  record: a kind (a row of :data:`~repro.faults.injector.ACTIONS`), a
  victim, and when to fire (absolute time, or a trace trigger).
* :class:`~repro.faults.triggers.TraceTrigger` -- a declarative record
  filter with a hit count; :func:`~repro.faults.triggers.window` names
  the protocol-critical ones.
* :class:`~repro.faults.injector.FaultPlan` -- an ordered schedule of
  faults installed onto a cluster.
* :mod:`repro.faults.scenarios` -- the named scenarios of the
  conformance battery and the recovery goldens.
"""

from repro.faults.injector import ACTIONS, FAULT_KINDS, Fault, FaultPlan
from repro.faults.scenarios import SCENARIOS, scenario
from repro.faults.triggers import WINDOWS, ScheduleFormatError, TraceTrigger, window

__all__ = [
    "ACTIONS",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "SCENARIOS",
    "ScheduleFormatError",
    "TraceTrigger",
    "WINDOWS",
    "scenario",
    "window",
]
