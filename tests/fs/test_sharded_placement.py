"""The namespace sharding layer: N-shard placement policies."""

import pytest

from repro.fs import (
    ObjectId,
    PinnedPlacement,
    HashPlacement,
    ShardedSubtreePlacement,
    SubtreePlacement,
)

NODES = ["mds0", "mds1", "mds2", "mds3"]


def test_sharded_subtree_stripes_consecutive_inodes_over_stripe_set():
    stripe = ["mds1", "mds2", "mds3"]
    p = ShardedSubtreePlacement(NODES, {"/": "mds0"}, stripe=stripe)
    homes = [p.place(ObjectId.inode(1000 + i)) for i in range(6)]
    # Consecutive inode numbers visit consecutive stripe shards.
    assert homes[:3] == homes[3:]
    assert sorted(set(homes)) == sorted(stripe)


def test_sharded_subtree_non_numeric_inode_key_hashes_into_stripe():
    p = ShardedSubtreePlacement(NODES, {"/": "mds0"}, stripe=["mds1", "mds2"])
    assert p.place(ObjectId.inode("ino-abc")) in ("mds1", "mds2")


def test_stripe_must_be_subset_of_nodes():
    with pytest.raises(ValueError, match="unknown nodes"):
        ShardedSubtreePlacement(NODES, {"/": "mds0"}, stripe=["mds9"])
    with pytest.raises(ValueError, match="at least one"):
        ShardedSubtreePlacement(NODES, {"/": "mds0"}, stripe=[])
    with pytest.raises(ValueError, match="unknown nodes"):
        ShardedSubtreePlacement(NODES, {"/": "mds0"}, stripe=["nope"])


def test_sharded_subtree_pins_dirs_and_stripes_inodes():
    p = ShardedSubtreePlacement(
        NODES, {"/": "mds0", "/pinned": "mds3"}, stripe=["mds1", "mds2"]
    )
    assert p.place(ObjectId.directory("/pinned/sub")) == "mds3"
    assert p.place(ObjectId.directory("/other")) == "mds0"
    # Inodes ignore the subtree map entirely: striped, even with a hint.
    p.hint_inode_path(1000, "/pinned/f0")
    assert p.place(ObjectId.inode(1000)) == "mds1"
    assert p.place(ObjectId.inode(1001)) == "mds2"


def test_sharded_subtree_requires_root_coverage():
    with pytest.raises(ValueError, match="root"):
        ShardedSubtreePlacement(NODES, {"/a": "mds0"})


def test_subtree_hint_inode_path_colocates_with_home_directory():
    p = SubtreePlacement(NODES, {"/": "mds0", "/a": "mds1"})
    p.hint_inode_path(2000, "/a/file")
    assert p.place(ObjectId.inode(2000)) == "mds1"
    # Without a hint the inode falls back to hashing over all nodes.
    assert p.place(ObjectId.inode(2001)) in NODES


def test_pinned_placement_falls_back_when_unpinned():
    fallback = HashPlacement(NODES)
    p = PinnedPlacement({ObjectId.directory("/d"): "mds3"}, fallback)
    assert p.place(ObjectId.directory("/d")) == "mds3"
    assert p.place(ObjectId.inode(1002)) == fallback.place(ObjectId.inode(1002))
    p.pin(ObjectId.inode(1002), "mds0")
    assert p.place(ObjectId.inode(1002)) == "mds0"
