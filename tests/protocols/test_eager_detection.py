"""Heartbeat-accelerated failure handling in the 1PC coordinator."""

from repro import Cluster
from repro.fs.placement import ForcedDistributedPlacement


def heartbeat_cluster(heartbeats):
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        heartbeats=heartbeats,
    )
    cluster.mkdir("/dir1")
    return cluster, cluster.new_client()


def crash_worker_and_settle(cluster, client):
    """Crash the worker the instant the request reaches it; return the
    (crash_time, abort_reply_time)."""
    # Warm the failure detector.
    cluster.sim.run(until=0.2)
    client.submit(client.plan_create("/dir1/f0"))
    while not any(
        r.category == "msg_recv" and r.actor == "mds2" and r.get("kind") == "UPDATE_REQ"
        for r in cluster.trace.records
    ):
        cluster.sim.step()
    crash_time = cluster.sim.now
    cluster.crash_server("mds2")
    while not cluster.outcomes:
        cluster.sim.step()
    return crash_time, cluster.outcomes[0].replied_at


def test_heartbeats_accelerate_worker_failure_handling():
    with_hb_cluster, c1 = heartbeat_cluster(True)
    t_crash, t_reply = crash_worker_and_settle(with_hb_cluster, c1)
    with_hb = t_reply - t_crash

    without_hb_cluster, c2 = heartbeat_cluster(False)
    t_crash2, t_reply2 = crash_worker_and_settle(without_hb_cluster, c2)
    without_hb = t_reply2 - t_crash2

    # Suspicion fires after ~3 missed 10 ms heartbeats + fencing; the
    # plain path waits the full 1 s reply timeout + fencing.
    assert with_hb < without_hb / 2
    assert with_hb_cluster.trace.count("early_suspicion") == 1
    assert without_hb_cluster.trace.count("early_suspicion") == 0
    # Both reach the same (abort) decision consistently.
    for cluster in (with_hb_cluster, without_hb_cluster):
        cluster.sim.run(until=cluster.sim.now + 150.0)
        assert cluster.check_invariants() == []
        assert not cluster.outcomes[0].committed


def test_eager_detection_never_fires_for_healthy_worker():
    cluster, client = heartbeat_cluster(True)

    def scenario(sim):
        for i in range(3):
            result = yield from client.create(f"/dir1/f{i}")
            assert result["committed"]

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    assert cluster.trace.count("early_suspicion") == 0
    assert cluster.trace.count("worker_probe") == 0
    cluster.sim.run(until=cluster.sim.now + 30.0)
    assert cluster.check_invariants() == []


def test_suspicion_during_partition_still_safe():
    """A partition triggers suspicion; fencing + shared-log read keep
    the outcome correct even though the worker is alive."""
    cluster, client = heartbeat_cluster(True)
    cluster.sim.run(until=0.2)
    client.submit(client.plan_create("/dir1/f0"))
    # Partition immediately: the UPDATE_REQ never arrives.
    cluster.partition({"mds2"})
    cluster.sim.run(until=cluster.sim.now + 10.0)
    cluster.heal_partition()
    cluster.sim.run(until=cluster.sim.now + 150.0)
    assert cluster.check_invariants() == []
    assert len(cluster.outcomes) == 1 and not cluster.outcomes[0].committed
    probes = cluster.trace.select("worker_probe")
    assert len(probes) == 1 and probes[0].get("committed") is False
