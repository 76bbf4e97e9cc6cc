"""Recovery-time experiment (extension).

Measures, per protocol, how long a distributed CREATE whose worker (or
coordinator) crashes mid-protocol takes to reach a stable outcome —
the window during which the directory stays locked or the namespace is
undecided.  1PC's aggressive fencing-based recovery trades a fencing
delay for never blocking on the dead peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationParams
from repro.mds.scenarios import distributed_create_cluster

#: Role each server of the two-MDS cluster plays in the CREATE.
ROLE_OF = {"mds1": "coordinator", "mds2": "worker"}


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one crash-recovery measurement."""

    protocol: str
    scenario: str
    #: Virtual time from crash injection to a consistent, decided state.
    settle_time: float
    committed: bool
    invariant_violations: int


def measure_crash_recovery(
    protocol: str,
    victim: str,
    crash_after: float = 2e-3,
    params: Optional[SimulationParams] = None,
    settle_budget: float = 120.0,
) -> RecoveryResult:
    """Crash ``victim`` shortly after the CREATE is submitted, reboot it.

    ``"mds1"`` is the coordinator of the CREATE, ``"mds2"`` its worker.
    """
    cluster, client = distributed_create_cluster(protocol, params=params)
    sim = cluster.sim
    client.submit(client.plan_create("/dir1/f0"))
    sim.run(until=sim.now + crash_after)
    crash_time = sim.now
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    sim.run(until=sim.now + settle_budget)
    return RecoveryResult(
        protocol=protocol,
        scenario=f"{ROLE_OF[victim]}-crash",
        settle_time=_settle_time(cluster, crash_time),
        committed=any(o.committed for o in cluster.outcomes),
        invariant_violations=len(cluster.check_invariants()),
    )


def _settle_time(cluster, crash_time: float) -> float:
    """Time from the crash to the last transaction-resolving event."""
    interesting = ("txn_done", "recovery", "log_gc", "worker_probe")
    times = [
        r.time
        for r in cluster.trace.records
        if r.category in interesting and r.time >= crash_time
    ]
    if not times:
        return 0.0
    return max(times) - crash_time
