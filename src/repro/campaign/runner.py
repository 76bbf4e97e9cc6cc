"""Campaign runner: execute one schedule and check the wreckage.

One campaign cell = one two-server cluster, a hot/cold CREATE workload
spread over ``n_clients`` concurrent clients, and the schedule's fault
plan — then, after the dust settles, a battery of checks:

* **invariants** — the §II namespace invariants over all stores;
* **atomicity** — every transaction's durable effects are
  all-or-nothing (dentry on the coordinator XOR inode on the worker is
  a partial commit);
* **durability** — a commit acknowledged to the client must have its
  effects durable;
* **serializability** — the durable image equals a serial replay of
  the committed transactions in reply order (recovery-committed
  transactions, which produce durable effects but no client outcome,
  are appended to the history);
* **conflict-cycle** — the lock-grant precedence graph is acyclic.

The verdict is a plain dict; :mod:`repro.exec.runners` carries it in
:class:`~repro.exec.spec.CellResult.verdict`, so campaign cells flow
through the executor like any other experiment cell.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.analysis.serializability import diff_against_serial, precedence_graph
from repro.campaign.schedule import CampaignSchedule
from repro.config import SimulationParams
from repro.fs.objects import AddDentry, CreateInode
from repro.fs.operations import OpPlan
from repro.fs.placement import ForcedDistributedPlacement
from repro.locks import find_deadlock_cycle
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


def _effect_presence(cluster: Cluster, plan: OpPlan) -> tuple[int, int]:
    """``(present, total)`` over the plan's durable effects.

    A CREATE's effects are one dentry on the directory owner and one
    inode on the inode owner; ``present == total`` means the
    transaction's image is fully durable, ``present == 0`` means no
    trace of it survives — anything in between is a torn commit.
    """
    present = 0
    total = 0
    for node, updates in plan.updates.items():
        store = cluster.store_of(node)
        for update in updates:
            if isinstance(update, AddDentry):
                total += 1
                entries = store.stable_directories.get(update.dir_path, {})
                if entries.get(update.name) == update.ino:
                    present += 1
            elif isinstance(update, CreateInode):
                total += 1
                if update.ino in store.stable_inodes:
                    present += 1
    return present, total


def check_run(
    cluster: Cluster,
    plans: list[OpPlan],
    bootstrap_dirs: dict[str, str],
) -> list[dict[str, str]]:
    """All violations found in the settled cluster, as plain dicts."""
    violations: list[dict[str, str]] = []

    for inv in cluster.check_invariants():
        violations.append(
            {"check": "invariant", "node": inv.subject, "detail": str(inv)}
        )

    committed = sorted(
        (o for o in cluster.outcomes if o.committed), key=lambda o: o.replied_at
    )
    committed_keys = {(o.op, o.path) for o in committed}
    plans_by_key = {(p.op, p.path): p for p in plans}

    recovered: list[OpPlan] = []
    for plan in plans:
        present, total = _effect_presence(cluster, plan)
        key = (plan.op, plan.path)
        if 0 < present < total:
            violations.append(
                {
                    "check": "atomicity",
                    "node": plan.coordinator,
                    "detail": (
                        f"{plan.op} {plan.path}: {present}/{total} effects "
                        f"durable (torn transaction)"
                    ),
                }
            )
        elif present == total and total > 0 and key not in committed_keys:
            # Durable but never acknowledged: committed by recovery
            # (log probing re-drives the commit without a client
            # reply).  Legal — goes into the serial history below.
            recovered.append(plan)
        if key in committed_keys and present < total:
            violations.append(
                {
                    "check": "durability",
                    "node": plan.coordinator,
                    "detail": (
                        f"{plan.op} {plan.path}: acknowledged committed but "
                        f"only {present}/{total} effects durable"
                    ),
                }
            )

    ordered: list[OpPlan] = []
    for outcome in committed:
        plan = plans_by_key.get((outcome.op, outcome.path))
        if plan is None:
            violations.append(
                {
                    "check": "serializability",
                    "node": outcome.coordinator,
                    "detail": (
                        f"committed outcome ({outcome.op}, {outcome.path}) "
                        f"matches no submitted plan"
                    ),
                }
            )
            continue
        ordered.append(plan)
    # Recovery-committed transactions have no reply time; distinct-path
    # CREATEs commute, so appending them (in deterministic path order)
    # yields a valid serial extension of the reply-order history.
    ordered.extend(sorted(recovered, key=lambda p: p.path))
    for sv in diff_against_serial(cluster, ordered, bootstrap_dirs):
        violations.append(
            {
                "check": "serializability",
                "node": sv.node,
                "detail": f"{sv.kind}: {sv.detail}",
            }
        )

    cycle = find_deadlock_cycle(set(precedence_graph(cluster.trace)))
    if cycle is not None:
        violations.append(
            {
                "check": "conflict-cycle",
                "node": "*",
                "detail": f"lock-precedence cycle between transactions {cycle}",
            }
        )
    return violations


def run_campaign_cell(
    schedule: CampaignSchedule,
    params: Optional[SimulationParams] = None,
) -> tuple[Cluster, dict[str, Any]]:
    """Execute one schedule; returns the settled cluster + verdict."""
    cluster = Cluster(
        protocol=schedule.protocol,
        server_names=["mds1", "mds2"],
        params=params,
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        trace=True,
    )
    bootstrap_dirs = {"/hot": cluster.mkdir("/hot")}
    for c in range(schedule.n_clients):
        bootstrap_dirs[f"/cold{c}"] = cluster.mkdir(f"/cold{c}")
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

    violations = check_run(cluster, plans, bootstrap_dirs)
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
