"""Directory tables created and dropped inside transactions.

The update vocabulary MIGRATE commits with (``CreateDirTable``,
``RemoveDirTable``) must be atomic under every protocol, and the drop
must refuse a non-empty table under the directory's lock.  These tests
build the two directory transactions a file system would issue — a
dentry at the parent's MDS, the inode and table at the directory's —
from that vocabulary and run them through the cluster.
"""

from repro.fs import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    DecLink,
    FileType,
    ObjectId,
    OpPlan,
    RemoveDentry,
    RemoveDirTable,
    split_path,
)
from tests.protocols.conftest import drain, make_cluster


def dir_plan(cluster, path, op):
    """``MKDIR`` or ``RMDIR`` of ``path``: the dentry at the parent's
    MDS (the coordinator), the inode and table at the directory's."""
    parent, name = split_path(path)
    parent_node = cluster.placement.place(ObjectId.directory(parent))
    dir_node = cluster.placement.place(ObjectId.directory(path))
    if op == "MKDIR":
        ino = cluster.allocator.next()
        link = AddDentry(parent, name, ino)
        table = [CreateInode(ino, FileType.DIRECTORY), CreateDirTable(path)]
    else:
        ino = cluster.lookup(path)
        link = RemoveDentry(parent, name)
        table = [RemoveDirTable(path), DecLink(ino)]
    updates = {parent_node: [link]}
    updates.setdefault(dir_node, []).extend(table)
    return OpPlan(op=op, path=path, updates=updates, coordinator=parent_node)


def mkdir(cluster, client, path):
    """Generator: commit ``MKDIR path``; returns the reply payload."""
    return client.run(dir_plan(cluster, path, "MKDIR"))


def rmdir(cluster, client, path):
    """Generator: commit ``RMDIR path``; returns the reply payload."""
    return client.run(dir_plan(cluster, path, "RMDIR"))


def run_op(cluster, gen):
    p = cluster.sim.process(gen)
    cluster.sim.run(until=p)
    return p.value


def test_mkdir_commits_and_is_usable(protocol):
    cluster, client = make_cluster(protocol)

    def scenario(sim):
        r1 = yield from mkdir(cluster, client, "/dir1/sub")
        # The new directory is immediately usable for creates.
        r2 = yield from client.create("/dir1/sub/file")
        return r1, r2

    r1, r2 = run_op(cluster, scenario(cluster.sim))
    assert r1["committed"] and r2["committed"]
    drain(cluster)
    assert cluster.check_invariants() == []
    # Directory inode is typed as a directory.
    ino = cluster.lookup("/dir1/sub")
    # Both the dir table and its inode live at the dir's MDS (mds1 for
    # dir objects under ForcedDistributedPlacement).
    node = cluster.store_of("mds1")
    assert node.has_dir("/dir1/sub")
    assert node.inode(ino).ftype is FileType.DIRECTORY
    assert cluster.lookup("/dir1/sub/file") is not None


def test_rmdir_empty_directory(protocol):
    cluster, client = make_cluster(protocol)

    def scenario(sim):
        yield from mkdir(cluster, client, "/dir1/sub")
        result = yield from rmdir(cluster, client, "/dir1/sub")
        return result

    result = run_op(cluster, scenario(cluster.sim))
    assert result["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/sub") is None
    assert not cluster.store_of("mds1").has_dir("/dir1/sub")


def test_rmdir_nonempty_aborts_with_enotempty(protocol):
    cluster, client = make_cluster(protocol)

    def scenario(sim):
        yield from mkdir(cluster, client, "/dir1/sub")
        yield from client.create("/dir1/sub/file")
        result = yield from rmdir(cluster, client, "/dir1/sub")
        return result

    result = run_op(cluster, scenario(cluster.sim))
    assert result["committed"] is False
    assert "not empty" in result["reason"]
    drain(cluster)
    assert cluster.check_invariants() == []
    # Directory and its content intact.
    assert cluster.lookup("/dir1/sub/file") is not None


def test_rmdir_then_recreate(protocol):
    cluster, client = make_cluster(protocol)

    def scenario(sim):
        yield from mkdir(cluster, client, "/dir1/sub")
        yield from rmdir(cluster, client, "/dir1/sub")
        result = yield from mkdir(cluster, client, "/dir1/sub")
        return result

    result = run_op(cluster, scenario(cluster.sim))
    assert result["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []


def test_nested_tree_build_and_teardown():
    cluster, client = make_cluster("1PC")

    def scenario(sim):
        for d in ("/dir1/a", "/dir1/a/b", "/dir1/a/b/c"):
            result = yield from mkdir(cluster, client, d)
            assert result["committed"], d
        for i in range(3):
            result = yield from client.create(f"/dir1/a/b/c/f{i}")
            assert result["committed"]
        # Teardown bottom-up.
        for i in range(3):
            yield from client.delete(f"/dir1/a/b/c/f{i}")
        for d in ("/dir1/a/b/c", "/dir1/a/b", "/dir1/a"):
            result = yield from rmdir(cluster, client, d)
            assert result["committed"], d

    run_op(cluster, scenario(cluster.sim))
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.listdir("/dir1") == {}


def test_mkdir_crash_recovery_atomic(protocol):
    """Crash the directory-home MDS mid-MKDIR: dentry and dir table
    must both exist or both be absent after recovery."""
    cluster, client = make_cluster(protocol)
    client.submit(dir_plan(cluster, "/dir1/sub", "MKDIR"))
    cluster.sim.run(until=2e-3)
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    # Under ForcedDistributedPlacement both the parent and the new dir
    # live on mds1, so MKDIR is actually local there; what matters is
    # consistency between dentry and table.
    store = cluster.store_of("mds1")
    dentry = store.stable_directories.get("/dir1", {}).get("sub")
    table = "/dir1/sub" in store.stable_directories
    assert (dentry is not None) == table


def test_concurrent_create_blocks_rmdir():
    """A create inside the directory and an rmdir of it serialise on
    the directory's lock; whichever commits first wins and the other
    sees consistent state."""
    cluster, client = make_cluster("1PC")

    def setup(sim):
        result = yield from mkdir(cluster, client, "/dir1/sub")
        assert result["committed"]

    run_op(cluster, setup(cluster.sim))
    # Fire both concurrently.
    client.submit(client.plan_create("/dir1/sub/file"))
    client.submit(dir_plan(cluster, "/dir1/sub", "RMDIR"))
    while len(cluster.outcomes) < 3:  # mkdir + the two above
        cluster.sim.step()
    drain(cluster)
    assert cluster.check_invariants() == []
    created = cluster.lookup("/dir1/sub/file") is not None
    removed = cluster.lookup("/dir1/sub") is None
    # Exactly one of the conflicting operations succeeded.
    assert created != removed
