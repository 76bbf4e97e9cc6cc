"""Paxos Commit (PC): consensus-voted 2PC over 2F+1 acceptors."""

import pytest

from repro.storage.records import RecordKind
from tests.protocols.conftest import drain, make_cluster, run_create


def test_pc_cluster_provisions_acceptors():
    cluster, _ = make_cluster("PC")
    assert cluster.acceptor_names == ("acc1", "acc2", "acc3")
    assert set(cluster.acceptors) == {"acc1", "acc2", "acc3"}


def test_pc_commit_path_works():
    cluster, client = make_cluster("PC")
    result = run_create(cluster, client)
    assert result["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/f0") is not None


def test_pc_acceptors_force_one_ballot_per_instance():
    """Both participants' votes land as durable BALLOT records on every
    acceptor (2 instances x 3 acceptors = 6 ballots), all released
    after the outcome settles."""
    cluster, client = make_cluster("PC")
    run_create(cluster, client)
    ballots = [
        r
        for r in cluster.trace.records
        if r.category == "log_append" and r.get("kind") == str(RecordKind.BALLOT)
    ]
    assert len(ballots) == 6
    assert {r.actor for r in ballots} == {"acc1", "acc2", "acc3"}
    drain(cluster)
    for name in cluster.acceptor_names:
        assert cluster.storage.log_of(name).durable_records == ()


def test_pc_survives_one_acceptor_crash():
    """F = 1: the commit decision outlives any single acceptor."""
    cluster, client = make_cluster("PC")
    cluster.acceptors["acc2"].crash()
    result = run_create(cluster, client)
    assert result["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/f0") is not None


def test_pc_aborts_without_quorum():
    """Two crashed acceptors leave one — below quorum — so the vote
    round times out and the transaction aborts cleanly everywhere."""
    cluster, client = make_cluster("PC")
    cluster.acceptors["acc1"].crash()
    cluster.acceptors["acc3"].crash()
    result = run_create(cluster, client)
    assert result["committed"] is False
    assert "quorum" in result["reason"]
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.store_of("mds2").stable_inodes == {}


def test_pc_vote_refusal_aborts_cleanly():
    cluster, client = make_cluster("PC")
    cluster.servers["mds2"].fail_next_vote = True
    result = run_create(cluster, client)
    assert result["committed"] is False
    drain(cluster)
    assert cluster.check_invariants() == []
    for node in ("mds1", "mds2"):
        assert cluster.servers[node].locks._table == {}
        assert cluster.storage.log_of(node).durable_records == ()


def test_pc_duplicate_votes_accepted_idempotently():
    """A re-announced vote (the recovery path) must not grow a second
    ballot in the same instance."""
    cluster, client = make_cluster("PC")
    run_create(cluster, client)
    proto = cluster.servers["mds2"].protocol
    # Replay the worker's announcement as a recovering node would.
    proto._announce_vote(1, "mds1")
    cluster.sim.run(until=cluster.sim.now + 50.0)
    for name in cluster.acceptor_names:
        ballots = [
            r
            for r in cluster.storage.log_of(name).durable_records
            if r.kind == RecordKind.BALLOT and r.payload.get("instance") == "mds2"
        ]
        assert len(ballots) <= 1


@pytest.mark.parametrize("crash_at", [1e-3, 3e-3, 5e-3, 8e-3])
@pytest.mark.parametrize("victim", ["mds1", "mds2"])
def test_pc_crash_atomicity(victim, crash_at):
    cluster, client = make_cluster("PC")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_pc_coordinator_recovery_refills_quorum_from_ballots():
    """Crash the coordinator after both votes are durable: recovery
    re-runs the voting round against the acceptors' durable ballots
    and drives the transaction to a single outcome."""
    cluster, client = make_cluster("PC")
    client.submit(client.plan_create("/dir1/f0"))
    while not any(
        r.category == "log_durable" and r.actor == "mds2" and r.get("kind") == "PREPARED"
        for r in cluster.trace.records
    ):
        cluster.sim.step()
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_pc_acceptor_crash_restart_mid_burst_stays_atomic():
    cluster, client = make_cluster("PC")
    for i in range(5):
        client.submit(client.plan_create(f"/dir1/t{i}"))
    cluster.sim.run(until=3e-3)
    cluster.acceptors["acc1"].crash()
    cluster.sim.run(until=cluster.sim.now + 20e-3)
    cluster.acceptors["acc1"].restart()
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    dentries = cluster.store_of("mds1").stable_directories.get("/dir1", {})
    inodes = cluster.store_of("mds2").stable_inodes
    assert len(dentries) == len(inodes)


def test_pc_torture():
    from tests.faults.test_torture import assert_clean, run_torture

    for seed in range(3):
        assert_clean(run_torture("PC", seed))
