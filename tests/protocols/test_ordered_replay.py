"""§III-D ordered replay with several outstanding transactions."""

import pytest

from repro.faults import Fault, FaultPlan
from repro.storage.records import RecordKind
from tests.protocols.conftest import make_cluster


def test_1pc_coordinator_replays_all_outstanding_in_order():
    """Crash the 1PC coordinator with several transactions in flight:
    every one with a durable STARTED+REDO must be re-executed, in
    submission order, before new requests run."""
    cluster, client = make_cluster("1PC")
    for i in range(4):
        client.submit(client.plan_create(f"/dir1/f{i}"))
    # Let all four STARTED+REDO records become durable (~0.5 ms each on
    # the coordinator's device), then crash before the first commit
    # write lands.
    while (
        sum(
            1
            for r in cluster.trace.records
            if r.category == "log_durable"
            and r.actor == "mds1"
            and r.get("kind") == "REDO"
        )
        < 4
    ):
        cluster.sim.step()
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    # Submit a new request during the reboot window; it must wait.
    cluster.sim.run(
        until=cluster.sim.now + cluster.params.failure.reboot_delay + 1e-3
    )
    client.submit(client.plan_create("/dir1/late"))
    cluster.sim.run(until=cluster.sim.now + 400.0)

    assert cluster.check_invariants() == []
    listing = cluster.store_of("mds1").stable_directories["/dir1"]
    # Every redo-logged create was completed, plus the late one.
    assert set(listing) == {"f0", "f1", "f2", "f3", "late"}

    redo_actions = [
        r for r in cluster.trace.select("recovery", actor="mds1")
        if r.get("action") == "redo"
    ]
    assert len(redo_actions) == 4
    # Replay happened in the original submission (txn id) order.
    redo_txns = [r.get("txn") for r in redo_actions]
    assert redo_txns == sorted(redo_txns)
    # The late request committed only after every redo finished.
    late_outcome = [o for o in cluster.outcomes if o.path == "/dir1/late"][0]
    last_redo_done = max(
        r.time
        for r in cluster.trace.select("recovery", actor="mds1")
        if r.get("action") == "redo-committed"
    )
    assert late_outcome.replied_at >= last_redo_done


def test_2pc_coordinator_aborts_all_unprepared_outstanding(twopc_protocol):
    """The 2PC dual: outstanding transactions whose log shows only
    STARTED are aborted on reboot — nothing survives, consistently."""
    cluster, client = make_cluster(twopc_protocol)
    # Hold the coordinator's log device for 2 ms so that the three
    # STARTED records land before any PREPARED (EP's coordinator starts
    # its own prepare as soon as the first transaction's STARTED lands).
    FaultPlan([Fault("stall", "mds1", at=0.0, duration=2e-3)]).install(cluster)
    for i in range(3):
        client.submit(client.plan_create(f"/dir1/f{i}"))
    while (
        sum(
            1
            for r in cluster.trace.records
            if r.category == "log_durable"
            and r.actor == "mds1"
            and r.get("kind") == "STARTED"
        )
        < 3
    ):
        cluster.sim.step()
    durable = cluster.storage.log_of("mds1").durable_records
    assert [r.kind for r in durable] == [RecordKind.STARTED] * 3
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 400.0)
    assert cluster.check_invariants() == []
    # With only STARTED durable, every transaction must have aborted.
    listing = cluster.store_of("mds1").stable_directories["/dir1"]
    inodes = cluster.store_of("mds2").stable_inodes
    assert listing == {} and inodes == {}


@pytest.mark.parametrize("n", [200])
def test_large_burst_smoke(n):
    """A deep burst well beyond the paper's 100 still completes with a
    clean namespace (stress smoke for the whole pipeline)."""
    from repro.workloads import run_burst

    result = run_burst("1PC", n=n)
    assert result.committed == n
    assert result.cluster.check_invariants() == []
    assert len(result.cluster.listdir("/dir1")) == n
