"""Isolation: conflicting concurrent operations, cross-server lock
ordering and the timeout-based deadlock breaking of §II-B."""

from repro import Cluster
from repro.fs import ObjectId
from tests.protocols.conftest import drain, make_cluster


def test_same_name_concurrent_creates_one_winner(protocol):
    """Two clients race to create the same path: exactly one commits,
    the loser gets a clean EEXIST abort."""
    cluster, client_a = make_cluster(protocol)
    client_b = cluster.new_client()
    client_a.submit(client_a.plan_create("/dir1/race"))
    client_b.submit(client_b.plan_create("/dir1/race"))
    while len(cluster.outcomes) < 2:
        cluster.sim.step()
    drain(cluster)
    committed = [o for o in cluster.outcomes if o.committed]
    aborted = [o for o in cluster.outcomes if not o.committed]
    assert len(committed) == 1 and len(aborted) == 1
    assert "exists" in aborted[0].reason
    assert cluster.check_invariants() == []
    # Exactly one inode materialised.
    assert len(cluster.store_of("mds2").stable_inodes) == 1


def test_create_delete_race_is_serializable(protocol):
    """Delete racing the create of the same name: every interleaving
    leaves consistent state and the outcomes compose serially."""
    cluster, client = make_cluster(protocol)

    def creator(sim):
        result = yield from client.create("/dir1/x")
        return result["committed"]

    p1 = cluster.sim.process(creator(cluster.sim))
    cluster.sim.run(until=p1)
    # Now race a second create with a delete.
    client.submit(client.plan_create("/dir1/y"))
    client.submit(client.plan_delete("/dir1/x"))
    while len(cluster.outcomes) < 3:
        cluster.sim.step()
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/x") is None
    assert cluster.lookup("/dir1/y") is not None


class CrossPlacement:
    """/a on mds1, /b on mds2, inodes colocated with their directory
    so that cross-directory renames lock directories on both servers."""

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            return "mds1" if obj.key.startswith("/a") or obj.key == "/" else "mds2"
        return self._ino_homes.get(obj.key, "mds1")

    def __init__(self):
        self._ino_homes = {}

    def hint_inode_path(self, ino, path):
        self._ino_homes[str(ino)] = "mds1" if path.startswith("/a") else "mds2"

    def pin(self, obj, node):
        pass


def test_cross_rename_deadlock_broken_by_timeout():
    """Two renames in opposite directions (a->b and b->a) acquire the
    two directory locks in opposite orders — a classic deadlock.  The
    §II-B timeout must break it: at least one rename completes, state
    stays consistent."""
    from dataclasses import replace

    from repro.config import SimulationParams

    base = SimulationParams.paper_defaults()
    # Short lock timeout so the deadlock resolves quickly.
    params = base.with_(failure=replace(base.failure, lock_timeout=0.25))
    cluster = Cluster(
        protocol="PrN",
        server_names=["mds1", "mds2"],
        placement=CrossPlacement(),
        params=params,
    )
    cluster.mkdir("/a")
    cluster.mkdir("/b")
    client = cluster.new_client()

    def setup(sim):
        r1 = yield from client.run(client.plan_create("/a/x"))
        r2 = yield from client.run(client.plan_create("/b/y"))
        assert r1["committed"] and r2["committed"]

    p = cluster.sim.process(setup(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)

    client.submit(client.plan_rename("/a/x", "/b/x2", touch_inode=False))
    client.submit(client.plan_rename("/b/y", "/a/y2", touch_inode=False))
    deadline = cluster.sim.now + 300.0
    while len(cluster.outcomes) < 4 and cluster.sim.peek() < deadline:
        cluster.sim.step()
    cluster.sim.run(until=cluster.sim.now + 120.0)
    renames = [o for o in cluster.outcomes if o.op == "RENAME"]
    # The deadlock was broken: both renames reached a decision instead
    # of blocking forever.  (Symmetric timeouts may abort both — the
    # paper's design leaves the retry to the client.)
    assert len(renames) == 2
    assert cluster.check_invariants() == []
    aborted = [o for o in renames if not o.committed]
    assert all("lock timeout" in o.reason for o in aborted)

    # Clients retry the aborted renames one at a time: all succeed.
    def retry(sim):
        if cluster.lookup("/a/x") is not None:
            result = yield from client.rename("/a/x", "/b/x2")
            assert result["committed"]
        if cluster.lookup("/b/y") is not None:
            result = yield from client.rename("/b/y", "/a/y2")
            assert result["committed"]

    p = cluster.sim.process(retry(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/b/x2") is not None
    assert cluster.lookup("/a/y2") is not None
    assert cluster.lookup("/a/x") is None and cluster.lookup("/b/y") is None


def test_lock_timeout_produces_clean_abort():
    """A transaction whose worker cannot get its lock within the lock
    timeout aborts cleanly instead of blocking forever."""
    from dataclasses import replace

    from repro.config import SimulationParams

    base = SimulationParams.paper_defaults()
    params = base.with_(failure=replace(base.failure, lock_timeout=0.2))
    cluster, client = make_cluster("1PC", params=params)
    # A long-running hog holds the worker-side inode lock...  there is
    # no external API for that, so hold the *directory* lock via a
    # fake transaction instead.
    mgr = cluster.servers["mds1"].locks

    def hog(sim):
        from repro.fs import ObjectId
        from repro.locks import LockMode

        if grant := mgr.request("hog", ObjectId.directory("/dir1"), LockMode.EXCLUSIVE):
            yield grant
        yield sim.timeout(2.0)
        mgr.release_all("hog")

    cluster.sim.process(hog(cluster.sim))
    cluster.sim.run(until=0.01)
    client.submit(client.plan_create("/dir1/blocked"))
    while len(cluster.outcomes) < 1:
        cluster.sim.step()
    outcome = cluster.outcomes[0]
    assert not outcome.committed
    assert "lock timeout" in outcome.reason
    drain(cluster)
    assert cluster.check_invariants() == []
