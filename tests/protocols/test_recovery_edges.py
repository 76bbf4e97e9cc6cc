"""Recovery edge cases: stray handlers, crash loops, crash-during-recovery."""

import pytest

from repro.campaign.runner import run_fault_cell
from repro.faults import Fault, FaultPlan, TraceTrigger
from repro.fs.placement import ShardedSubtreePlacement
from repro.mds.cluster import Cluster
from repro.protocols.base import MsgKind
from repro.storage.records import RecordKind
from tests.protocols.conftest import drain, make_cluster, run_create


def test_stray_commit_for_checkpointed_txn_is_acked(twopc_protocol):
    """§II-C last case: a COMMIT for a transaction whose log was already
    checkpointed means 'committed long ago' — reply ACK."""
    cluster, client = make_cluster(twopc_protocol)
    run_create(cluster, client)
    drain(cluster)
    mark = len(cluster.trace.records)
    # Replay a COMMIT for txn 1 out of the blue.
    cluster.network.endpoint("mds1").send_to("mds2", MsgKind.COMMIT, txn_id=1)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    acks = [
        r
        for r in cluster.trace.records[mark:]
        if r.category == "msg_send" and r.get("kind") == MsgKind.ACK and r.actor == "mds2"
    ]
    assert len(acks) == 1


def test_stray_prepare_with_no_state_votes_no(twopc_protocol):
    """A PREPARE for an unknown transaction must be answered with
    NOT-PREPARED (the worker lost the updates)."""
    cluster, _client = make_cluster(twopc_protocol)
    mark = len(cluster.trace.records)
    cluster.network.endpoint("mds1").send_to("mds2", MsgKind.PREPARE, txn_id=77)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    votes = [
        r
        for r in cluster.trace.records[mark:]
        if r.category == "msg_send" and r.get("kind") == MsgKind.NOT_PREPARED
    ]
    assert len(votes) == 1


def test_stray_ack_req_answered_when_log_empty():
    """1PC: a worker's ACK_REQ for a checkpointed transaction gets an
    ACK (absence of coordinator state implies the commit finished)."""
    cluster, client = make_cluster("1PC")
    run_create(cluster, client)
    drain(cluster)
    mark = len(cluster.trace.records)
    cluster.network.endpoint("mds2").send_to("mds1", MsgKind.ACK_REQ, txn_id=1)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    acks = [
        r
        for r in cluster.trace.records[mark:]
        if r.category == "msg_send" and r.get("kind") == MsgKind.ACK and r.actor == "mds1"
    ]
    assert len(acks) == 1


def test_decision_req_answered_from_aborted_log(twopc_protocol):
    """An ABORTED record that could not be GC'd (unacknowledged abort)
    must answer later decision queries with ABORT."""
    cluster, client = make_cluster(twopc_protocol)
    # Abort a transaction while the worker is partitioned away so the
    # abort can never be acknowledged.
    cluster.partition({"mds2"})
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 30.0)
    outcome = cluster.outcomes[0]
    assert not outcome.committed
    cluster.heal_partition()
    state = cluster.storage.log_of("mds1").last_state(outcome.txn_id)
    if twopc_protocol == "PrA":  # pragma: no cover - PrA presumes aborts
        return
    assert state == RecordKind.ABORTED
    mark = len(cluster.trace.records)
    cluster.network.endpoint("mds2").send_to(
        "mds1", MsgKind.DECISION_REQ, txn_id=outcome.txn_id
    )
    cluster.sim.run(until=cluster.sim.now + 1.0)
    decisions = [
        r
        for r in cluster.trace.records[mark:]
        if r.category == "msg_send" and r.get("kind") == MsgKind.ABORT and r.actor == "mds1"
    ]
    assert len(decisions) == 1


def test_crash_loop_worker(protocol):
    """Three consecutive worker crash/restart cycles during one
    transaction: the system still converges to a consistent state."""
    cluster, client = make_cluster(protocol)
    client.submit(client.plan_create("/dir1/f0"))
    at = 1e-3
    for _round in range(3):
        cluster.sim.run(until=cluster.sim.now + at)
        if not cluster.servers["mds2"].crashed:
            cluster.crash_server("mds2")
            cluster.restart_server("mds2")
        at = 0.3
    cluster.sim.run(until=cluster.sim.now + 400.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_crash_during_recovery(protocol):
    """The coordinator crashes again while its reboot recovery is in
    flight; the second recovery must still converge."""
    cluster, client = make_cluster(protocol)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=3e-3)
    cluster.crash_server("mds1")
    cluster.restart_server("mds1", after=0.05)
    # Second crash shortly after the restart, likely mid-recovery.
    cluster.sim.run(until=cluster.sim.now + 0.055)
    if not cluster.servers["mds1"].crashed:
        cluster.crash_server("mds1")
        cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 400.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_recovery_is_idempotent_when_nothing_pending(protocol):
    """Restarting a quiescent server finds nothing to recover and
    serves immediately."""
    cluster, client = make_cluster(protocol)
    run_create(cluster, client)
    drain(cluster)
    cluster.crash_server("mds1")
    cluster.restart_server("mds1", after=0.0)
    cluster.sim.run(until=cluster.sim.now + 5.0)
    assert not cluster.servers["mds1"].recovering
    assert cluster.trace.count("recovery") == 0
    done = cluster.sim.process(client.create("/dir1/after"), name="after")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []


@pytest.mark.parametrize("protocol", ["PrN", "PrA"])
@pytest.mark.parametrize(
    "back",
    # mds1 back long after mds3's COMMIT retransmissions: T2's COMMIT
    # comes while mds2's recovery still waits on T1, before it reached T2.
    # Back at 1.049 s: T1 resolves while T2's stray commit is in its
    # forced write, so the recovery reaches T2 with its session live.
    [120.0, 1.049],
    ids=["behind-a-blocked-txn", "while-the-stray-commits"],
)
def test_two_in_doubt_transactions_on_one_rebooted_worker(protocol, back):
    """mds2 is the worker of T1 (coordinator mds1) and T2 (mds3) and
    reboots with both PREPARED; T1's coordinator is down, so the
    recovery, one transaction after the other, waits on T1 while mds3
    retransmits T2's COMMIT.  That COMMIT finds no session: the crash
    dropped T2's updates from the cache, so its stray commit must
    re-install them from the log before committing."""
    servers = ["mds1", "mds2", "mds3"]
    placement = ShardedSubtreePlacement(servers, {"/": "mds1", "/b": "mds3"}, stripe=["mds2"])
    cluster = Cluster(protocol=protocol, server_names=servers, placement=placement)
    cluster.mkdir("/a")
    cluster.mkdir("/b")
    client = cluster.new_client()
    t1, t2 = client.plan_create("/a/f"), client.plan_create("/b/f")
    voted = TraceTrigger("log_durable", "mds2", (("kind", "PREPARED"),))
    heard = TraceTrigger("msg_recv", "mds3", (("kind", "PREPARED"),))
    faults = (
        Fault("crash", "mds1", trigger=voted, restart_after=back),
        Fault("crash", "mds2", trigger=heard),
    )
    violations = run_fault_cell(cluster, [(0.0, client, t1), (0.05, client, t2)], FaultPlan(faults))
    assert [str(v) for v in violations] == []
    strays = cluster.trace.select("recovery", actor="mds2")
    assert (2, "stray-commit") in [(r.detail["txn"], r.detail["action"]) for r in strays]
