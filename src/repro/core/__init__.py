"""The paper's contribution: the One Phase Commit protocol (§III).

* :mod:`repro.core.one_phase` -- the 1PC coordinator/worker state
  machines (failure-free protocol of Figure 5 plus the §III-C failure
  protocol).
* :mod:`repro.core.recovery` -- the shared-log recovery path: fencing
  the suspect worker, then reading its log partition from the central
  storage to learn its decision.
* :mod:`repro.core.batching` -- the §VI future-work extension:
  aggregating many namespace operations on the same directory into one
  transaction.
* :mod:`repro.core.fanout` -- ``1PC-N``, the same core fanned out to
  any number of workers for sharded namespaces (with the partial-
  failure resolution the generalisation requires).

Importing this package registers the protocols under the names
``"1PC"`` and ``"1PC-N"`` in :mod:`repro.protocols.registry`.
"""

from repro.core.batching import BatchPlanner
from repro.core.fanout import OnePhaseFanoutProtocol
from repro.core.one_phase import OnePhaseCommitProtocol
from repro.core.recovery import WorkerProbeResult, probe_worker_log

__all__ = [
    "BatchPlanner",
    "OnePhaseCommitProtocol",
    "OnePhaseFanoutProtocol",
    "WorkerProbeResult",
    "probe_worker_log",
]
