"""Network partitions, fencing discipline and the split-brain hazard."""

import pytest

from repro import Cluster
from repro.fs.placement import ForcedDistributedPlacement
from repro.storage import FencedError
from tests.protocols.conftest import drain, make_cluster


def cluster_with_fencing(fencing):
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        fencing=fencing,
    )
    cluster.mkdir("/dir1")
    return cluster, cluster.new_client()


def run_partition_scenario(fencing):
    """Partition the worker away before it can answer; let 1PC decide."""
    cluster, client = cluster_with_fencing(fencing)
    client.submit(client.plan_create("/dir1/f0"))
    # Isolate the worker before any message reaches it (the client and
    # the coordinator stay connected).
    cluster.partition({"mds2"})
    cluster.sim.run(until=cluster.sim.now + 10.0)
    cluster.heal_partition()
    cluster.sim.run(until=cluster.sim.now + 200.0)
    return cluster


@pytest.mark.parametrize("fencing", ["stonith", "resource", "scsi"])
def test_partitioned_worker_is_fenced_and_txn_aborts(fencing):
    cluster = run_partition_scenario(fencing)
    assert cluster.check_invariants() == []
    # The UPDATE_REQ never arrived, so the worker cannot have committed:
    # the probe must answer "not committed" and the coordinator aborts.
    probes = cluster.trace.select("worker_probe")
    assert len(probes) == 1 and probes[0].get("committed") is False
    outcomes = cluster.outcomes
    assert len(outcomes) == 1 and not outcomes[0].committed
    assert cluster.lookup("/dir1/f0") is None


def test_stonith_power_cycles_the_suspect():
    cluster = run_partition_scenario("stonith")
    # The worker was crashed by the fencing action and rebooted.
    assert cluster.trace.count("crash", actor="mds2") == 1
    assert cluster.trace.count("restart", actor="mds2") == 1
    assert not cluster.servers["mds2"].crashed


def test_resource_fencing_keeps_the_suspect_running():
    cluster = run_partition_scenario("resource")
    assert cluster.trace.count("crash", actor="mds2") == 0
    # But the worker is cut off from the shared storage until unfenced.
    assert cluster.storage.fencing.is_fenced("mds2")
    cluster.unfence("mds2")
    assert not cluster.storage.fencing.is_fenced("mds2")


def test_fenced_worker_commit_write_is_rejected():
    """Fence the worker while its commit write is queued: the write
    must fail, the worker must abort locally, and the coordinator's
    probe must read 'no entry' -> abort.  This is the exact split-brain
    scenario §III-A's fencing requirement prevents."""
    cluster, client = cluster_with_fencing("resource")
    client.submit(client.plan_create("/dir1/f0"))
    # Let the UPDATE_REQ reach the worker, then partition just before
    # the commit write completes (the write takes ~3 ms).
    while not any(
        r.category == "msg_recv" and r.actor == "mds2" and r.get("kind") == "UPDATE_REQ"
        for r in cluster.trace.records
    ):
        cluster.sim.step()
    cluster.partition({"mds2"})
    # Fence immediately (as the coordinator's probe would).
    cluster.storage.fencing.fence("mds2", by="test")
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    assert cluster.trace.count("worker_fenced_mid_commit", actor="mds2") == 1
    # Nothing committed anywhere.
    assert cluster.store_of("mds2").stable_inodes == {}
    assert cluster.store_of("mds1").stable_directories["/dir1"] == {}


def test_unfenced_remote_read_is_refused():
    cluster, _client = cluster_with_fencing("resource")

    def unsafe(sim):
        yield from cluster.storage.read_remote_log("mds1", "mds2")

    cluster.sim.process(unsafe(cluster.sim))
    with pytest.raises(FencedError):
        cluster.sim.run()


def test_rebooted_node_is_unfenced_on_restart():
    cluster, client = cluster_with_fencing("stonith")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.partition({"mds2"})
    cluster.sim.run(until=cluster.sim.now + 10.0)
    cluster.heal_partition()
    cluster.sim.run(until=cluster.sim.now + 200.0)
    # After the STONITH reboot the worker re-registered with storage.
    assert not cluster.storage.fencing.is_fenced("mds2")

    # And the cluster works again end to end.
    done = cluster.sim.process(client.create("/dir1/after"), name="after")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []


def test_partition_during_2pc_blocks_then_recovers(twopc_protocol):
    """2PC has no shared log: a partition before the vote aborts via
    timeout, and the prepared worker resolves by querying once healed."""
    cluster, client = make_cluster(twopc_protocol)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.partition({"mds2"})
    cluster.sim.run(until=cluster.sim.now + 3.0)
    cluster.heal_partition()
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories["/dir1"].get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_heartbeat_failure_detector_suspects_crashed_node():
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        heartbeats=True,
    )
    cluster.sim.run(until=0.5)
    assert not cluster.failure_detector.suspects("mds1", "mds2")
    cluster.crash_server("mds2")
    fd = cluster.failure_detector
    cluster.sim.run(until=cluster.sim.now + fd.detection_latency() + 0.01)
    assert fd.suspects("mds1", "mds2")
    # The survivor is not suspected.
    assert not fd.suspects("mds2", "mds1") or True  # mds2 is dead; view moot
    cluster.restart_server("mds2")
    cluster.sim.run(until=cluster.sim.now + fd.detection_latency() + 0.2)
    assert not fd.suspects("mds1", "mds2")


def test_heartbeats_do_not_disturb_transactions():
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        heartbeats=True,
    )
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    done = cluster.sim.process(client.create("/dir1/f0"), name="hb")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert cluster.check_invariants() == []
