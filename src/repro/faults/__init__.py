"""Fault injection.

Declarative fault schedules executed against a running cluster:

* :class:`~repro.faults.injector.CrashFault`,
  :class:`~repro.faults.injector.PartitionFault`,
  :class:`~repro.faults.injector.LinkFault`,
  :class:`~repro.faults.injector.VoteRefusalFault` -- individual fault
  actions with a trigger time (absolute, or "when trace predicate
  fires").
* :class:`~repro.faults.injector.FaultPlan` -- an ordered schedule of
  faults installed onto a cluster.
* :mod:`repro.faults.scenarios` -- a library of named scenarios used by
  the conformance battery and the torture tests, plus a seeded random
  fault-plan generator.
"""

from repro.faults.injector import (
    CrashFault,
    DiskStallFault,
    FaultPlan,
    LinkFault,
    PartitionFault,
    VoteRefusalFault,
)
from repro.faults.scenarios import SCENARIOS, random_fault_plan, scenario

__all__ = [
    "CrashFault",
    "DiskStallFault",
    "FaultPlan",
    "LinkFault",
    "PartitionFault",
    "SCENARIOS",
    "VoteRefusalFault",
    "random_fault_plan",
    "scenario",
]
