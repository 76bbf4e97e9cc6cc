"""Adversarial fault-campaign harness.

The conformance battery probes each protocol at hand-picked crash
points; this package turns :mod:`repro.faults` + the one oracle
(:func:`repro.analysis.oracle.check`) into a *search* harness:

* :mod:`repro.campaign.schedule` -- :class:`CampaignSchedule`, a
  seeded, canonical-JSON description of one run (workload shape +
  :class:`repro.faults.Fault` records), and :func:`generate_schedule`,
  the randomized generator, which aims trace-triggered faults at the
  protocol-critical windows of :mod:`repro.faults.triggers` (at-vote,
  after-vote, between fence and remote log read, during recovery, on
  WAL flush).
* :mod:`repro.campaign.runner` -- executes one schedule on a live
  cluster and folds the oracle's findings (namespace invariants,
  per-transaction atomicity, durability of acknowledged commits, no
  residue of answered aborts, serial equivalence, conflict cycles)
  into a structured verdict.  ``repro.exec`` runs it
  as the ``campaign`` RunSpec kind, so these two modules sit *below*
  the executor.
* :mod:`repro.campaign.shrink` -- a delta-debugging shrinker that
  reduces a violating schedule to a minimal repro (drop faults,
  shrink workload, tighten triggers) and emits a self-contained,
  replayable JSON repro document.
* :mod:`repro.campaign.cli` -- the ``repro campaign`` subcommand
  (``run`` / ``shrink`` / ``replay``).

``shrink`` and ``cli`` drive the executor, so they sit *above* it and
are not imported here: ``repro.exec`` passes through this package on
its way to ``runner``, and importing back would work in one order only.
"""

from repro.campaign.schedule import CampaignSchedule, generate_schedule
from repro.campaign.runner import run_campaign_cell

__all__ = [
    "CampaignSchedule",
    "generate_schedule",
    "run_campaign_cell",
]
