"""Unit tests for metadata objects, updates and the transactional store."""

import copy
import json
import pickle

import pytest

from repro.fs import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    DecLink,
    FileType,
    Inode,
    MetadataStore,
    ObjectId,
    RemoveDentry,
    RemoveDirTable,
    TouchInode,
    UpdateError,
    update_from_description,
)


def make_store():
    store = MetadataStore("mds1")
    store.mkdir("/")
    store.mkdir("/dir1")
    return store


def test_object_id_validation_and_factories():
    assert ObjectId.directory("/a").kind == "dir"
    assert ObjectId.inode(5) == ObjectId("inode", "5")
    with pytest.raises(ValueError):
        ObjectId("bogus", "x")


def test_object_id_is_its_text_kind_colon_key():
    oid = ObjectId.directory("/a/b")
    assert (oid.kind, oid.key) == ("dir", "/a/b")
    assert str(oid) == f"{oid}" == "dir:/a/b"
    assert repr(oid) == "ObjectId(kind='dir', key='/a/b')"
    assert repr(ObjectId.inode(7)) == "ObjectId(kind='inode', key='7')"
    # The exporters' ``default=str`` text, and the same without it.
    record = {"obj": oid, "ino": ObjectId.inode(7)}
    expected = '{"obj": "dir:/a/b", "ino": "inode:7"}'
    assert json.dumps(record, default=str) == json.dumps(record) == expected


@pytest.mark.parametrize("oid", [ObjectId.directory("/d"), ObjectId.inode(12)])
def test_object_id_survives_pickle_and_deepcopy(oid):
    for clone in (pickle.loads(pickle.dumps(oid)), copy.deepcopy(oid), copy.copy(oid)):
        assert clone == oid and hash(clone) == hash(oid)
        assert type(clone) is type(oid) and (clone.kind, clone.key) == (oid.kind, oid.key)


def test_object_id_constructor_and_factories_agree():
    for built, made in (
        (ObjectId("dir", "/p"), ObjectId.directory("/p")),
        (ObjectId("inode", "9"), ObjectId.inode(9)),
    ):
        assert built == made and hash(built) == hash(made)
        assert type(built) is type(made) and isinstance(made, ObjectId)


def test_object_ids_of_different_kinds_are_never_equal():
    assert ObjectId.directory("9") != ObjectId.inode(9)
    assert ObjectId("dir", "inode:1") != ObjectId.inode(1)
    assert len({ObjectId.directory("1"), ObjectId.inode(1)}) == 2


def test_object_id_refuses_attribute_assignment():
    oid = ObjectId.inode(3)
    for name in ("kind", "key", "other"):
        with pytest.raises(AttributeError):
            setattr(oid, name, "x")
    assert not hasattr(oid, "__dict__")
    assert (oid.kind, oid.key) == ("inode", "3")


def test_mkdir_duplicate_rejected():
    store = make_store()
    with pytest.raises(UpdateError):
        store.mkdir("/dir1")


def test_add_dentry_and_commit():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "f", 100))
    # Not visible in the stable image until commit.
    assert store.lookup("/dir1", "f") is None
    store.commit(1)
    assert store.lookup("/dir1", "f") == 100


def test_add_dentry_duplicate_in_overlay_rejected():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "f", 100))
    with pytest.raises(UpdateError):
        store.apply(1, AddDentry("/dir1", "f", 200))


def test_add_dentry_missing_directory_rejected():
    store = make_store()
    with pytest.raises(UpdateError):
        store.apply(1, AddDentry("/nope", "f", 100))


def test_remove_dentry_roundtrip():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "f", 100))
    store.commit(1)
    store.apply(2, RemoveDentry("/dir1", "f"))
    store.commit(2)
    assert store.lookup("/dir1", "f") is None


def test_remove_missing_dentry_rejected():
    store = make_store()
    with pytest.raises(UpdateError):
        store.apply(1, RemoveDentry("/dir1", "ghost"))


def test_create_inode_and_links():
    store = make_store()
    store.apply(1, CreateInode(100))
    store.commit(1)
    assert store.inode(100).nlink == 1
    store.adopt_inode(Inode(101, FileType.FILE, nlink=2))
    store.apply(3, DecLink(101))
    store.commit(3)
    assert store.inode(101).nlink == 1


def test_dec_link_to_zero_deletes_inode():
    store = make_store()
    store.apply(1, CreateInode(100))
    store.commit(1)
    store.apply(2, DecLink(100))
    store.commit(2)
    assert store.inode(100) is None


def test_create_duplicate_inode_rejected():
    store = make_store()
    store.adopt_inode(Inode(100, FileType.FILE))
    with pytest.raises(UpdateError):
        store.apply(1, CreateInode(100))


def test_link_updates_on_missing_inode_rejected():
    store = make_store()
    for update in (DecLink(99), TouchInode(99)):
        with pytest.raises(UpdateError):
            store.apply(1, update)
        store.abort(1)


def test_touch_inode_is_semantic_noop():
    store = make_store()
    store.adopt_inode(Inode(100, FileType.FILE))
    store.apply(1, TouchInode(100))
    store.commit(1)
    assert store.inode(100).nlink == 1


def test_abort_discards_overlay():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "f", 100))
    store.abort(1)
    store.commit(1)  # idempotent no-op
    assert store.lookup("/dir1", "f") is None


def test_crash_discards_all_overlays():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "a", 1))
    store.apply(2, AddDentry("/dir1", "b", 2))
    assert store.in_flight() == [1, 2]
    store.crash()
    assert store.in_flight() == []
    store.commit(1)
    assert store.listdir("/dir1") == {}


def test_overlays_are_isolated_per_transaction():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "a", 1))
    store.apply(2, AddDentry("/dir1", "b", 2))
    store.commit(1)
    assert store.listdir("/dir1") == {"a": 1}
    store.commit(2)
    assert store.listdir("/dir1") == {"a": 1, "b": 2}


def test_updates_of_returns_applied_order():
    store = make_store()
    u1 = AddDentry("/dir1", "a", 1)
    u2 = CreateInode(1)
    store.apply(1, u1)
    store.apply(1, u2)
    assert store.updates_of(1) == [u1, u2]
    assert store.updates_of(99) == []
    # Still answered once committed in the cache but not yet hardened
    # (1PC forces its UPDATES record after the client reply).
    store.commit(1)
    assert store.updates_of(1) == [u1, u2]
    store.harden(1)
    assert store.updates_of(1) == []


def test_commit_unknown_txn_is_noop():
    store = make_store()
    store.commit(12345)


def test_update_targets():
    assert AddDentry("/d", "f", 1).target() == ObjectId.directory("/d")
    assert RemoveDentry("/d", "f").target() == ObjectId.directory("/d")
    assert CreateInode(7).target() == ObjectId.inode(7)
    assert DecLink(7).target() == ObjectId.inode(7)


def test_update_describe_roundtrip():
    for update in (
        AddDentry("/d", "f", 1),
        RemoveDentry("/d", "f"),
        CreateInode(7, FileType.DIRECTORY),
        DecLink(7),
        TouchInode(7),
        CreateDirTable("/d/sub"),
        RemoveDirTable("/d/sub"),
    ):
        revived = update_from_description(update.describe())
        assert revived == update


def test_update_from_unknown_description_rejected():
    with pytest.raises(ValueError):
        update_from_description({"type": "Nonsense"})


def test_stable_views_are_copies():
    store = make_store()
    store.apply(1, AddDentry("/dir1", "f", 100))
    store.commit(1)
    view = store.stable_directories
    view["/dir1"]["f"] = 999
    assert store.lookup("/dir1", "f") == 100


def test_listdir_and_has_dir():
    store = make_store()
    assert store.has_dir("/dir1")
    assert not store.has_dir("/other")
    assert store.listdir("/other") == {}
