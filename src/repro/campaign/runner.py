"""Campaign runner: execute one schedule and check the wreckage.

One campaign cell = one two-server cluster, a hot/cold CREATE workload
spread over ``n_clients`` concurrent clients, and the schedule's fault
plan — then, after the dust settles, the one oracle
(:func:`repro.analysis.oracle.check`: invariants, atomicity,
durability, aborted residue, serializability, conflict cycles).
Install, submit, settle and judge is :func:`run_fault_cell`, which the
conformance battery and the recovery artifact run too.

The hub runs in ``"attribute"`` mode and keeps no stream
(``trace="full"`` does).  The runner asks it for the lock-precedence
edges before the run, so every lock grant folds its edge — what the
oracle's conflict-cycle pass reads; the fault triggers hear their own
categories; the rest of the hub attributes only its sampled
transactions (1 in :data:`repro.obs.hub.SAMPLE_EVERY`), which no
campaign reads.

The verdict is a plain dict; :mod:`repro.exec.runners` carries it in
:class:`~repro.exec.spec.CellResult.verdict`, so campaign cells flow
through the executor like any other experiment cell.
"""

from __future__ import annotations

from dataclasses import asdict
from operator import itemgetter
from typing import Any, Optional, Sequence

from repro.analysis.oracle import Violation, check
from repro.campaign.schedule import CampaignSchedule
from repro.config import SimulationParams
from repro.faults import FaultPlan
from repro.fs.operations import OpPlan
from repro.fs.placement import ForcedDistributedPlacement
from repro.mds.client import Client
from repro.mds.cluster import Cluster
from repro.sim import RngRegistry

#: Virtual seconds the cluster gets to settle after submission: long
#: enough for every commit-drive retry ladder, reboot and recovery
#: probe to finish (same budget as the torture tests).
SETTLE_SECONDS = 300.0


#: A fault cell's submission: the instant it is due, its client, its plan.
TimedSubmission = tuple[float, Client, OpPlan]


def run_fault_cell(
    cluster: Cluster, submissions: Sequence[TimedSubmission], faults: FaultPlan
) -> list[Violation]:
    """The one fault cell: install ``faults``, submit each plan when it
    is due (same-instant ones in the order given), settle for
    :data:`SETTLE_SECONDS`, and judge the plans, in the order given,
    with the oracle.  Each submission is one timer, due where a driver
    sleeping ``when - now`` before each later ``when`` would wake:
    ``due + (when - due)`` is not always ``when``."""
    faults.install(cluster)
    sim = cluster.sim
    due = sim.now
    for when, client, plan in sorted(submissions, key=itemgetter(0)):
        if when > due:
            due += when - due
        sim.at(due, client.submit, plan)
    sim.run(until=sim.now + SETTLE_SECONDS)
    return check(cluster, [plan for _when, _client, plan in submissions])


def run_campaign_cell(
    schedule: CampaignSchedule,
    params: Optional[SimulationParams] = None,
    trace: str = "attribute",
) -> tuple[Cluster, dict[str, Any]]:
    """Execute one schedule with the hub in mode ``trace``; returns the
    settled cluster + verdict."""
    cluster = Cluster(
        protocol=schedule.protocol,
        server_names=["mds1", "mds2"],
        params=params,
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        trace=trace,
    )
    cluster.obs.keep_precedence()
    cluster.mkdir("/hot")
    for c in range(schedule.n_clients):
        cluster.mkdir(f"/cold{c}")
    clients = [cluster.new_client() for _ in range(schedule.n_clients)]

    rng = RngRegistry(schedule.seed)
    submissions: list[TimedSubmission] = []
    for i in range(schedule.n_ops):
        c = i % schedule.n_clients
        hot = rng.bernoulli(f"hot{i}", schedule.hot_ratio)
        parent = "/hot" if hot else f"/cold{c}"
        plan = clients[c].plan_create(f"{parent}/f{i}")
        submissions.append((rng.uniform(f"submit{i}", 0.0, schedule.horizon), clients[c], plan))

    fault_plan = schedule.build_plan()
    violations = [asdict(v) for v in run_fault_cell(cluster, submissions, fault_plan)]
    committed = sum(1 for o in cluster.outcomes if o.committed)
    aborted = sum(1 for o in cluster.outcomes if not o.committed)
    fired = len(fault_plan.fired)
    verdict: dict[str, Any] = {
        "ok": not violations,
        "protocol": schedule.protocol,
        "schedule_seed": schedule.seed,
        "committed": committed,
        "aborted": aborted,
        "faults_planned": len(fault_plan.faults),
        "faults_fired": fired,
        "violations": violations,
    }
    cluster.obs.metrics.inc("campaign.runs")
    if violations:
        cluster.obs.metrics.inc("campaign.violations", len(violations))
    cluster.obs.annotate(
        "campaign_verdict",
        "campaign",
        ok=verdict["ok"],
        violations=len(violations),
        faults_fired=fired,
    )
    return cluster, verdict
