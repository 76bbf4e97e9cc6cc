"""Workload generators.

Every cell here is the same skeleton (:mod:`repro.workloads.cell`):
build a cluster (tracing per the one switch, ``cell.TRACE``), put its
operations to it through the one driver (``drive``: open loop, or a
closed loop of ``window`` clients), ``drain`` until every transaction
is answered, ``measure`` the replies into one :class:`Measurement`.

* :mod:`repro.workloads.burst` -- the §IV workload, open loop: N
  distributed transactions at one instant to one acp server, batched
  (§VI), with refused votes (§II-D), over K pairs (scaling) and over
  ``k`` workers per transaction (fan-out).
* :mod:`repro.workloads.composite` -- the mdtest-like trace over
  independent shard groups (the million-transaction shape), closed
  loop.
"""

from repro.workloads.burst import (
    run_abort_burst,
    run_batched_burst,
    run_burst,
    run_fanout_cell,
    run_scaling_cell,
)
from repro.workloads.cell import Measurement, drain, drive, measure

__all__ = [
    "Measurement",
    "drain",
    "drive",
    "measure",
    "run_abort_burst",
    "run_batched_burst",
    "run_burst",
    "run_fanout_cell",
    "run_scaling_cell",
]
