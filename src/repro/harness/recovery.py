"""Recovery-time experiment (extension).

Measures, per protocol, how long a distributed CREATE whose worker (or
coordinator) crashes mid-protocol takes to reach a stable outcome —
the window during which the directory stays locked or the namespace is
undecided.  1PC's aggressive fencing-based recovery trades a fencing
delay for never blocking on the dead peer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.runner import run_fault_cell
from repro.faults import Fault, FaultPlan, window
from repro.fs.placement import ForcedDistributedPlacement
from repro.mds.cluster import Cluster
from repro.mds.scenarios import distributed_create_cluster
from repro.workloads.cell import drive

#: Role each server of the two-MDS cluster plays in the CREATE.
ROLE_OF = {"mds1": "coordinator", "mds2": "worker"}
#: How long after the CREATE is submitted the victim crashes, seconds.
CRASH_AFTER = 2e-3


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one crash-recovery measurement."""

    protocol: str
    scenario: str
    #: Virtual time from crash injection to a consistent, decided state.
    settle_time: float
    committed: bool
    #: The oracle's findings in the settled cluster.
    violations: int


def measure_crash_recovery(protocol: str, victim: str) -> RecoveryResult:
    """Crash ``victim`` :data:`CRASH_AFTER` seconds after the CREATE is
    submitted, reboot it.

    ``"mds1"`` is the coordinator of the CREATE, ``"mds2"`` its worker.
    """
    cluster, client = distributed_create_cluster(protocol)
    crash = FaultPlan([Fault("crash", victim, at=CRASH_AFTER)])
    violations = run_fault_cell(cluster, [(0.0, client, client.plan_create("/dir1/f0"))], crash)
    return RecoveryResult(
        protocol=protocol,
        scenario=f"{ROLE_OF[victim]}-crash",
        settle_time=_settle_time(cluster, CRASH_AFTER),
        committed=any(o.committed for o in cluster.outcomes),
        violations=len(violations),
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


def measure_detection(heartbeats: bool) -> float:
    """Seconds from a 1PC worker's crash to the client's answer.

    The worker dies for good the moment the update request reaches it.
    With the heartbeat detector on, the coordinator fences it on
    suspicion; without, only after the protocol's reply timeout.
    """
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        heartbeats=heartbeats,
    )
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    cluster.sim.run(until=0.2)
    at_vote = window("at-vote", "mds2")
    FaultPlan([Fault("crash", "mds2", trigger=at_vote, restart_after=float("inf"))]).install(cluster)
    drive(cluster, [(client, client.plan_create("/dir1/f0"))])
    # Bounded: heartbeat timers never let the schedule run dry.
    cluster.sim.run(until=cluster.sim.now + 10.0)
    crashed_at = cluster.trace.select("crash", actor="mds2")[0].time
    return cluster.outcomes[0].replied_at - crashed_at
