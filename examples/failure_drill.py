#!/usr/bin/env python3
"""Failure drill: watch the 1PC recovery machinery work.

Three acts:

1. **Worker crash mid-transaction** — the coordinator times out,
   fences the worker (STONITH), mounts its log partition from the
   shared storage, finds no COMMITTED record and aborts.  The client
   gets a clean failure; the namespace stays consistent.
2. **Network partition after the worker committed** — same detection
   path, but the shared log *does* contain COMMITTED, so the
   coordinator commits.  This is the case a 2PC coordinator would have
   to block or abort on; the shared log turns it into a decision.
3. **Coordinator crash after replying** — the redo record drives the
   transaction to completion on reboot.

Run:  python examples/failure_drill.py
"""

from repro import Cluster
from repro.faults import Fault, FaultPlan, TraceTrigger, window
from repro.fs.placement import ForcedDistributedPlacement


def build():
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        fencing="stonith",
    )
    cluster.mkdir("/dir1")
    return cluster, cluster.new_client()


def narrate(cluster, since=0.0):
    interesting = {
        "crash": "node crashed",
        "restart": "node rebooted",
        "fence": "fenced",
        "remote_log_read": "read remote log",
        "worker_probe": "probe verdict",
        "client_reply": "client reply",
        "recovery": "recovery action",
        "txn_done": "transaction finished",
    }
    for rec in cluster.trace.records:
        if rec.category in interesting and rec.time >= since:
            detail = {k: v for k, v in rec.detail.items() if k != "updates"}
            print(f"  t={rec.time * 1e3:9.3f} ms  [{rec.actor}] "
                  f"{interesting[rec.category]} {detail}")


def act1_worker_crash():
    print("Act 1 — worker crashes before committing")
    cluster, client = build()
    # Crash the worker, for good, the moment the update request reaches it.
    FaultPlan([
        Fault("crash", "mds2", trigger=window("at-vote", "mds2"), restart_after=float("inf"))
    ]).install(cluster)
    client.submit(client.plan_create("/dir1/lost"))
    cluster.sim.run(until=cluster.sim.now + 120.0)
    narrate(cluster)
    print(f"  => invariants: {cluster.check_invariants() or 'OK'};"
          f" /dir1 = {cluster.listdir('/dir1')}\n")


def act2_partition_after_commit():
    print("Act 2 — partition after the worker committed (split-brain bait)")
    cluster, client = build()
    # Cut the worker off once its COMMITTED is durable; heal 5 s later.
    committed = TraceTrigger("log_durable", actor="mds2", where=(("kind", "COMMITTED"),))
    FaultPlan([Fault("partition", "mds2", trigger=committed, heal_after=5.0)]).install(cluster)
    client.submit(client.plan_create("/dir1/saved"))
    cluster.sim.run(until=cluster.sim.now + 125.0)
    narrate(cluster, since=cluster.trace.select("fault")[0].time)
    print(f"  => invariants: {cluster.check_invariants() or 'OK'};"
          f" /dir1 = {cluster.listdir('/dir1')}\n")


def act3_coordinator_crash():
    print("Act 3 — coordinator crashes; the redo record finishes the job")
    cluster, client = build()
    client.submit(client.plan_create("/dir1/redone"))
    cluster.sim.run(until=1e-3)  # STARTED+REDO is durable, updates are not
    t = cluster.sim.now
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 120.0)
    narrate(cluster, since=t)
    print(f"  => invariants: {cluster.check_invariants() or 'OK'};"
          f" /dir1 = {cluster.listdir('/dir1')}\n")


if __name__ == "__main__":
    act1_worker_crash()
    act2_partition_after_commit()
    act3_coordinator_crash()
