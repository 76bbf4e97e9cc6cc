"""Multi-worker transactions: wide RENAMEs under the 2PC family.

The 2PC-family coordinators generalise to N workers (the paper's
RENAME can span four MDSs, §I); these tests drive three- and four-MDS
transactions, including worker crashes during the vote.
"""

import pytest

from repro import Cluster
from repro.fs import ObjectId


class FourWayPlacement:
    """/src on mds1, /dst on mds2, even inodes on mds3, odd on mds4."""

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            return "mds1" if obj.key.startswith("/src") or obj.key == "/" else "mds2"
        return "mds3" if int(obj.key) % 2 == 0 else "mds4"

    def pin(self, obj, node):
        pass


def four_mds_cluster(protocol):
    cluster = Cluster(
        protocol=protocol,
        server_names=["mds1", "mds2", "mds3", "mds4"],
        placement=FourWayPlacement(),
    )
    cluster.mkdir("/src")
    cluster.mkdir("/dst")
    return cluster, cluster.new_client()


def seed_file(cluster, client, path="/src/x"):
    done = cluster.sim.process(client.run(client.plan_create(path)), name="seed")
    cluster.sim.run(until=done)
    assert done.value["committed"]
    cluster.sim.run(until=cluster.sim.now + 30.0)
    return cluster.lookup(path)


def all_consistent(cluster):
    assert cluster.check_invariants() == [], cluster.check_invariants()


def test_four_mds_rename_commits(twopc_protocol):
    cluster, client = four_mds_cluster(twopc_protocol)
    seed_file(cluster, client)
    plan = client.plan_rename("/src/x", "/dst/y")
    assert len(plan.participants) >= 3
    done = cluster.sim.process(client.run(plan), name="rename")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 60.0)
    all_consistent(cluster)
    assert cluster.lookup("/dst/y") is not None
    assert cluster.lookup("/src/x") is None


def test_four_mds_rename_with_replacement(twopc_protocol):
    cluster, client = four_mds_cluster(twopc_protocol)
    seed_file(cluster, client, "/src/x")
    seed_file(cluster, client, "/dst/y")
    plan = client.plan_rename("/src/x", "/dst/y")
    # src dir, dst dir, replaced inode, renamed inode: up to 4 MDSs.
    assert len(plan.participants) >= 3
    done = cluster.sim.process(client.run(plan), name="rename")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 60.0)
    all_consistent(cluster)
    # Exactly one inode remains reachable at /dst/y.
    assert cluster.lookup("/dst/y") is not None


def test_multiworker_vote_refusal_aborts_everywhere(twopc_protocol):
    cluster, client = four_mds_cluster(twopc_protocol)
    ino = seed_file(cluster, client)
    plan = client.plan_rename("/src/x", "/dst/y")
    workers = plan.workers
    assert len(workers) >= 2
    # One of the workers refuses its vote.
    cluster.servers[workers[-1]].fail_next_vote = True
    done = cluster.sim.process(client.run(plan), name="rename")
    cluster.sim.run(until=done)
    assert done.value["committed"] is False
    cluster.sim.run(until=cluster.sim.now + 120.0)
    all_consistent(cluster)
    # Nothing moved.
    assert cluster.lookup("/src/x") == ino
    assert cluster.lookup("/dst/y") is None


@pytest.mark.parametrize("crash_at", [1e-3, 3e-3, 6e-3, 10e-3])
def test_multiworker_worker_crash_atomicity(twopc_protocol, crash_at):
    cluster, client = four_mds_cluster(twopc_protocol)
    seed_file(cluster, client)
    plan = client.plan_rename("/src/x", "/dst/y")
    victim = plan.workers[0]
    client.submit(plan)
    cluster.sim.run(until=cluster.sim.now + crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + 700.0)
    all_consistent(cluster)
    src = cluster.lookup("/src/x")
    dst = cluster.lookup("/dst/y")
    # All-or-nothing: the file is in exactly one place.
    assert (src is None) != (dst is None)


def test_multiworker_coordinator_crash_atomicity(twopc_protocol):
    cluster, client = four_mds_cluster(twopc_protocol)
    seed_file(cluster, client)
    plan = client.plan_rename("/src/x", "/dst/y")
    client.submit(plan)
    cluster.sim.run(until=cluster.sim.now + 3e-3)
    cluster.crash_server(plan.coordinator)
    cluster.restart_server(plan.coordinator)
    cluster.sim.run(until=cluster.sim.now + 700.0)
    all_consistent(cluster)
    src = cluster.lookup("/src/x")
    dst = cluster.lookup("/dst/y")
    assert (src is None) != (dst is None)


def test_1pc_cluster_runs_wide_renames_via_fallback_under_load():
    cluster, client = four_mds_cluster("1PC")
    # A mix: creates handled by 1PC, renames by the PrN fallback.
    paths = [f"/src/f{i}" for i in range(6)]

    def scenario(sim):
        for path in paths:
            result = yield from client.run(client.plan_create(path))
            assert result["committed"]
        for i, path in enumerate(paths):
            result = yield from client.rename(path, f"/dst/g{i}")
            assert result["committed"]

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    all_consistent(cluster)
    assert len(cluster.listdir("/dst")) == 6
    assert cluster.listdir("/src") == {}
    assert cluster.trace.count("fallback_protocol") == 6
