"""Unit tests for the file-system invariant checker, including the two
failure scenarios of §II."""

from repro.fs import (
    AddDentry,
    CreateInode,
    DecLink,
    FileType,
    Inode,
    MetadataStore,
    RemoveDentry,
    check_invariants,
)


def rules(violations):
    """The §II rule each violation names (every one is an ``invariant``)."""
    assert {v.check for v in violations} <= {"invariant"}
    return [v.detail.partition(":")[0] for v in violations]


def two_mds_with_file():
    """Figure 1's situation: /dir2/file1's dentry on mds1, inode on mds2."""
    mds1 = MetadataStore("mds1")
    mds1.mkdir("/dir2")
    mds2 = MetadataStore("mds2")
    mds1.apply(1, AddDentry("/dir2", "file1", 100))
    mds1.commit_durable(1)
    mds2.apply(1, CreateInode(100))
    mds2.commit_durable(1)
    return mds1, mds2


def test_consistent_state_has_no_violations():
    mds1, mds2 = two_mds_with_file()
    assert check_invariants([mds1, mds2]) == []


def test_partial_delete_orphaned_inode_detected():
    """§II scenario: MDS1 unlinks but MDS2 never drops the inode ->
    orphaned inode."""
    mds1, mds2 = two_mds_with_file()
    mds1.apply(2, RemoveDentry("/dir2", "file1"))
    mds1.commit_durable(2)
    violations = check_invariants([mds1, mds2])
    assert rules(violations) == ["no-orphaned-inode"]
    assert "inode 100" in violations[0].subject


def test_partial_delete_dangling_reference_detected():
    """§II scenario: MDS2 deletes the inode but MDS1 keeps the dentry ->
    dangling reference."""
    mds1, mds2 = two_mds_with_file()
    mds2.apply(2, DecLink(100))
    mds2.commit_durable(2)
    violations = check_invariants([mds1, mds2])
    assert rules(violations) == ["no-dangling-reference"]
    assert "/dir2/file1" in violations[0].subject


def test_link_count_mismatch_detected():
    mds1, mds2 = two_mds_with_file()
    mds1.apply(2, AddDentry("/dir2", "hardlink", 100))
    mds1.commit_durable(2)  # second dentry without IncLink
    violations = check_invariants([mds1, mds2])
    assert rules(violations) == ["link-count"]


def test_hardlink_with_inclink_is_consistent():
    from repro.fs import IncLink

    mds1, mds2 = two_mds_with_file()
    mds1.apply(2, AddDentry("/dir2", "hardlink", 100))
    mds1.commit_durable(2)
    mds2.apply(2, IncLink(100))
    mds2.commit_durable(2)
    assert check_invariants([mds1, mds2]) == []


def test_double_directory_ownership_detected():
    mds1 = MetadataStore("mds1")
    mds1.mkdir("/dup")
    mds2 = MetadataStore("mds2")
    mds2.mkdir("/dup")
    violations = check_invariants([mds1, mds2])
    assert rules(violations) == ["unique-ownership"]


def test_double_inode_ownership_detected():
    mds1 = MetadataStore("mds1")
    mds1.adopt_inode(Inode(7, FileType.FILE, nlink=0))
    mds2 = MetadataStore("mds2")
    mds2.adopt_inode(Inode(7, FileType.FILE, nlink=0))
    violations = check_invariants([mds1, mds2])
    assert "unique-ownership" in rules(violations)


def test_directory_inodes_exempt_from_orphan_rule_by_default():
    mds1 = MetadataStore("mds1")
    mds1.adopt_inode(Inode(1, FileType.DIRECTORY))
    assert check_invariants([mds1]) == []
    # A file inode in the same spot is an orphan.
    mds1.adopt_inode(Inode(2, FileType.FILE))
    assert rules(check_invariants([mds1])) == ["no-orphaned-inode"]


def test_uncommitted_overlays_do_not_affect_invariants():
    mds1, mds2 = two_mds_with_file()
    mds1.apply(9, RemoveDentry("/dir2", "file1"))  # never committed
    assert check_invariants([mds1, mds2]) == []


def test_violation_str_format():
    mds1, mds2 = two_mds_with_file()
    mds2.apply(2, DecLink(100))
    mds2.commit_durable(2)
    v = check_invariants([mds1, mds2])[0]
    assert str(v) == (
        "[invariant] /dir2/file1: no-dangling-reference: "
        "references inode 100, which does not exist"
    )
