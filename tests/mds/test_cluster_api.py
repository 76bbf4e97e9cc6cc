"""Cluster assembly, fallback routing, wide renames, multi-server runs."""

import pytest

from repro import Cluster
from repro.fs import ObjectId, SubtreePlacement
from repro.fs.placement import ForcedDistributedPlacement


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        Cluster(protocol="3PC")


def test_mkdir_unknown_server_rejected():
    cluster = Cluster(server_names=["mds1", "mds2"])
    with pytest.raises(KeyError):
        cluster.mkdir("/x", owner="ghost")


def test_mkdir_owner_requires_pinnable_placement():
    cluster = Cluster(
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
    )
    # ForcedDistributedPlacement has a no-op pin, so this succeeds.
    cluster.mkdir("/ok", owner="mds1")

    class NoPin:
        def place(self, obj):
            return "mds1"

    cluster2 = Cluster(server_names=["mds1"], placement=NoPin())
    with pytest.raises(TypeError):
        cluster2.mkdir("/x", owner="mds1")


def test_wide_rename_falls_back_to_2pc():
    """A four-MDS RENAME exceeds 1PC's one-worker limit; the server
    must run it under the PrN fallback."""
    names = ["mds1", "mds2", "mds3", "mds4"]

    class FourWay:
        def place(self, obj):
            if obj == ObjectId.directory("/a"):
                return "mds1"
            if obj == ObjectId.directory("/b"):
                return "mds2"
            if obj.kind == "inode" and int(obj.key) % 2 == 0:
                return "mds3"
            return "mds4"

        def pin(self, obj, node):
            pass

    cluster = Cluster(protocol="1PC", server_names=names, placement=FourWay())
    cluster.mkdir("/a")
    cluster.mkdir("/b")
    client = cluster.new_client()

    def scenario(sim):
        r1 = yield from client.create("/a/x")
        assert r1["committed"]
        r2 = yield from client.rename("/a/x", "/b/y")
        return r2

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 150.0)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/b/y") is not None
    assert cluster.lookup("/a/x") is None
    assert cluster.trace.count("fallback_protocol") == 1


def test_four_server_cluster_hash_placement():
    cluster = Cluster(protocol="1PC", server_names=[f"mds{i}" for i in range(1, 5)])
    cluster.mkdir("/dir1")
    client = cluster.new_client()

    def scenario(sim):
        for i in range(12):
            result = yield from client.create(f"/dir1/f{i}")
            assert result["committed"]

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 150.0)
    assert cluster.check_invariants() == []
    assert len(cluster.listdir("/dir1")) == 12


def test_subtree_placement_keeps_ops_local():
    names = ["mds1", "mds2"]
    placement = SubtreePlacement(names, {"/": "mds1", "/home": "mds2"})
    cluster = Cluster(protocol="1PC", server_names=names, placement=placement)
    cluster.mkdir("/home")
    client = cluster.new_client()
    plan = client.plan_create("/home/file")
    # Subtree locality: the inode co-locates with its directory.
    assert not plan.is_distributed
    assert plan.coordinator == "mds2"


def test_figure1_distributed_namespace_example():
    """Figure 1: four MDSs, /dir2/file1's dentry and inode on
    different servers — exactly the situation that needs an ACP."""
    names = [f"mds{i}" for i in range(1, 5)]
    cluster = Cluster(protocol="1PC", server_names=names)
    cluster.mkdir("/dir2", owner="mds1")
    client = cluster.new_client()
    # Find a path whose inode lands on a different server.
    plan = None
    for i in range(32):
        candidate = client.plan_create(f"/dir2/file{i}")
        if candidate.is_distributed:
            plan = candidate
            break
    assert plan is not None
    done = cluster.sim.process(client.run(plan), name="fig1")
    cluster.sim.run(until=done)
    assert done.value["committed"]
    cluster.sim.run(until=cluster.sim.now + 150.0)
    assert cluster.check_invariants() == []


def test_lookup_and_listdir_roundtrip():
    cluster = Cluster(server_names=["mds1", "mds2"])
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()
    done = cluster.sim.process(client.create("/dir1/f0"), name="x")
    cluster.sim.run(until=done)
    cluster.sim.run(until=cluster.sim.now + 150.0)
    ino = cluster.lookup("/dir1/f0")
    assert ino is not None
    assert cluster.listdir("/dir1") == {"f0": ino}
    assert cluster.lookup("/dir1/ghost") is None


def test_restart_non_crashed_server_rejected():
    cluster = Cluster(server_names=["mds1", "mds2"])
    with pytest.raises(RuntimeError):
        cluster.servers["mds1"].restart()


def test_outcome_bookkeeping():
    cluster = Cluster(server_names=["mds1", "mds2"])
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()
    done = cluster.sim.process(client.create("/dir1/f0"), name="x")
    cluster.sim.run(until=done)
    cluster.sim.run(until=cluster.sim.now + 150.0)
    assert len(cluster.outcomes) == 1
    out = cluster.outcomes[0]
    assert out.committed
    assert out.client_latency > 0
    assert out.op == "CREATE" and out.coordinator == "mds1"
