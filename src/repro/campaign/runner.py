"""Campaign runner: execute one schedule and check the wreckage.

One campaign cell = one two-server cluster, a hot/cold CREATE workload
spread over ``n_clients`` concurrent clients, and the schedule's fault
plan — then, after the dust settles, the one oracle
(:func:`repro.analysis.oracle.check`: invariants, atomicity,
durability, aborted residue, serializability, conflict cycles).

The hub runs in ``"attribute"`` mode: it folds at each hook what the
oracle reads, and keeps no stream (``trace="full"`` does).

The verdict is a plain dict; :mod:`repro.exec.runners` carries it in
:class:`~repro.exec.spec.CellResult.verdict`, so campaign cells flow
through the executor like any other experiment cell.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Iterator, Optional

from repro.analysis.oracle import check
from repro.campaign.schedule import CampaignSchedule
from repro.config import SimulationParams
from repro.fs.operations import OpPlan
from repro.fs.placement import ForcedDistributedPlacement
from repro.mds.client import Client
from repro.mds.cluster import Cluster
from repro.sim import RngRegistry

#: Virtual seconds the cluster gets to settle after submission: long
#: enough for every commit-drive retry ladder, reboot and recovery
#: probe to finish (same budget as the torture tests).
SETTLE_SECONDS = 300.0


def _submit_all(
    cluster: Cluster, submissions: list[tuple[float, int, Client, OpPlan]]
) -> Iterator[Any]:
    """Driver process: fire each submission at its scheduled time."""
    for when, _idx, client, plan in submissions:
        delay = when - cluster.sim.now
        if delay > 0:
            yield cluster.sim.timeout(delay)
        client.submit(plan)


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
    cluster.mkdir("/hot")
    for c in range(schedule.n_clients):
        cluster.mkdir(f"/cold{c}")
    clients = [cluster.new_client() for _ in range(schedule.n_clients)]

    rng = RngRegistry(schedule.seed)
    plans: list[OpPlan] = []
    submissions: list[tuple[float, int, Client, OpPlan]] = []
    for i in range(schedule.n_ops):
        c = i % schedule.n_clients
        hot = rng.bernoulli(f"hot{i}", schedule.hot_ratio)
        parent = "/hot" if hot else f"/cold{c}"
        plan = clients[c].plan_create(f"{parent}/f{i}")
        plans.append(plan)
        submissions.append(
            (rng.uniform(f"submit{i}", 0.0, schedule.horizon), i, clients[c], plan)
        )
    submissions.sort(key=lambda s: (s[0], s[1]))

    fault_plan = schedule.build_plan()
    fault_plan.install(cluster)
    cluster.sim.process(_submit_all(cluster, submissions), name="campaign-driver")
    cluster.sim.run(until=cluster.sim.now + SETTLE_SECONDS)

    violations = [asdict(v) for v in check(cluster, plans)]
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
