"""Logless one-phase commit (LGL): replication instead of a WAL."""

import pytest

from repro.faults import scenario
from repro.protocols.lgl import LGLCoordinator
from tests.protocols.conftest import drain, make_cluster, run_create


def test_lgl_cluster_provisions_backups():
    cluster, _ = make_cluster("LGL")
    assert set(cluster.backups) == {"mds1", "mds2"}


def test_lgl_commit_path_writes_no_log_records():
    """The defining property: a committed distributed CREATE without a
    single write-ahead-log append anywhere."""
    cluster, client = make_cluster("LGL")
    result = run_create(cluster, client)
    assert result["committed"] is True
    assert cluster.trace.count("log_append") == 0
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/f0") is not None
    assert cluster.trace.count("log_append") == 0


def test_lgl_backups_garbage_collected_after_settle():
    cluster, client = make_cluster("LGL")
    run_create(cluster, client)
    drain(cluster)
    for name in ("mds1", "mds2"):
        replica = cluster.backups[name]
        assert replica.entries == {}, f"{name} backup kept {replica.entries}"


def test_lgl_vote_refusal_aborts_cleanly():
    cluster, client = make_cluster("LGL")
    cluster.servers["mds2"].fail_next_vote = True
    result = run_create(cluster, client)
    assert result["committed"] is False
    drain(cluster)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    assert dentry is None
    assert cluster.store_of("mds2").stable_inodes == {}
    for node in ("mds1", "mds2"):
        assert cluster.servers[node].locks._table == {}
        assert cluster.backups[node].entries == {}


def test_lgl_sealed_backup_rejects_late_commit_facet():
    """Direct seal semantics: once the coordinator's probe seals a
    transaction at the backup, begin/commit facets bounce (REPLICATE_REJECTED)
    while the abort facet is still accepted."""
    cluster, client = make_cluster("LGL")
    run_create(cluster, client)
    drain(cluster)
    replica = cluster.backups["mds2"]
    replica.sealed.add(99)
    server = cluster.servers["mds2"]
    session = LGLCoordinator(server.protocol, 99)
    session.inbox = server.open_session(99)
    verdicts = []

    def committed(verdict):
        verdicts.append(verdict)
        server.close_session(99)
        session.replicate("aborted", True, verdicts.append)

    session.replicate("commit", {"data": 1}, committed)
    cluster.sim.run(until=cluster.sim.now + 10.0)
    assert verdicts[0] is False  # rejected, not unreachable
    assert len(verdicts) == 2
    assert "commit" not in replica.entries.get(99, {})


def test_lgl_partition_at_vote_stays_atomic():
    """The coordinator seals the unreachable worker's backup and
    aborts; the sealed worker cannot commit behind its back."""
    cluster, client = make_cluster("LGL")
    scenario("partition-at-vote").install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


@pytest.mark.parametrize("crash_at", [1e-3, 3e-3, 5e-3, 8e-3])
@pytest.mark.parametrize("victim", ["mds1", "mds2"])
def test_lgl_crash_atomicity(victim, crash_at):
    cluster, client = make_cluster("LGL")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_lgl_coordinator_recovery_refetches_from_backup():
    """Crash the coordinator once its begin facet is replicated: the
    reboot has no WAL to read, so recovery must refetch state from the
    backup replica and drive the transaction to one outcome."""
    cluster, client = make_cluster("LGL")
    client.submit(client.plan_create("/dir1/f0"))
    while not cluster.backups["mds1"].entries:
        cluster.sim.step()
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    recovery = cluster.trace.select("recovery")
    assert recovery, "recovery never consulted the backup"
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_lgl_worker_crash_after_commit_facet_preserves_commit():
    """Once the worker's commit facet is replicated the transaction
    must survive the worker's crash — the facet is the (logless)
    durability point the coordinator counted on."""
    cluster, client = make_cluster("LGL")
    client.submit(client.plan_create("/dir1/f0"))
    while not any(
        "commit" in entry for entry in cluster.backups["mds2"].entries.values()
    ):
        cluster.sim.step()
    cluster.crash_server("mds2")
    cluster.restart_server("mds2")
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert dentry is not None and len(inodes) > 0, (
        "replicated commit facet was lost by the worker crash"
    )


def test_lgl_burst_matches_other_protocols_semantics():
    """A contended burst commits everything exactly once."""
    cluster, client = make_cluster("LGL")
    for i in range(10):
        client.submit(client.plan_create(f"/dir1/t{i}"))
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    dentries = cluster.store_of("mds1").stable_directories.get("/dir1", {})
    assert len(dentries) == 10
    assert len(cluster.store_of("mds2").stable_inodes) == 10


def test_lgl_torture():
    from tests.faults.test_torture import assert_clean, run_torture

    for seed in range(3):
        assert_clean(run_torture("LGL", seed))
