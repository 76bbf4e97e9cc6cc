"""DELETE of a name whose inode has other links (§II DELETE step (b):
update the reference counter and optionally delete).

No namespace operation makes a second link, so the tests provision
one outside any transaction, as ``Cluster.mkdir`` provisions a
directory: a dentry at the parent's MDS and the inode's link count
raised to match at the inode's.
"""

import dataclasses

from repro.fs import AddDentry, ObjectId, split_path
from tests.protocols.conftest import drain, make_cluster, run_create


def provision_link(cluster, target, link_path):
    """Give ``target``'s inode the extra name ``link_path``."""
    ino = cluster.lookup(target)
    parent, name = split_path(link_path)
    dentries = cluster.store_of(cluster.placement.place(ObjectId.directory(parent)))
    dentries.apply(0, AddDentry(parent, name, ino))
    dentries.commit_durable(0)
    inodes = cluster.store_of(cluster.placement.place(ObjectId.inode(ino)))
    inode = inodes.stable_inodes[ino]
    inodes.adopt_inode(dataclasses.replace(inode, nlink=inode.nlink + 1))
    assert cluster.check_invariants() == []


def test_delete_one_link_keeps_inode(protocol):
    cluster, client = make_cluster(protocol)
    run_create(cluster, client)
    drain(cluster)
    provision_link(cluster, "/dir1/f0", "/dir1/hard")

    def scenario(sim):
        result = yield from client.delete("/dir1/f0")
        return result

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    ino = cluster.lookup("/dir1/hard")
    assert ino is not None
    assert cluster.store_of("mds2").inode(ino).nlink == 1
    assert cluster.lookup("/dir1/f0") is None


def test_delete_last_link_drops_inode():
    cluster, client = make_cluster("1PC")
    run_create(cluster, client)
    drain(cluster)
    provision_link(cluster, "/dir1/f0", "/dir1/hard")

    def scenario(sim):
        yield from client.delete("/dir1/f0")
        yield from client.delete("/dir1/hard")

    p = cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=p)
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.store_of("mds2").stable_inodes == {}
