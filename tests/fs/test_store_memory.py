"""Regression tests for the copy-on-write store internals.

PR 10 replaced the three full-image copies per transaction with
copy-on-write delta views and the unbounded ``set[int]`` applied-txn
watermark with compressed integer ranges.  These tests pin the exact
semantics the protocols rely on (all-or-nothing commit, exact
``has_applied`` membership) and the memory bounds that make
million-transaction runs possible.
"""

import random

import pytest

from repro.fs import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    MetadataStore,
    RemoveDentry,
    RemoveDirTable,
    UpdateError,
)
from repro.fs.store import _AppliedSet


# -- _AppliedSet: exact membership in O(#gaps) memory -------------------------


def test_applied_set_matches_plain_set_under_fuzz():
    rng = random.Random(42)
    compressed = _AppliedSet()
    reference = set()
    for _ in range(5000):
        txn = rng.randrange(800)
        compressed.add(txn)
        reference.add(txn)
    for txn in range(-5, 805):
        assert (txn in compressed) == (txn in reference)


def test_applied_set_collapses_contiguous_ids_to_one_range():
    s = _AppliedSet()
    order = list(range(1000))
    random.Random(7).shuffle(order)
    for txn in order:
        s.add(txn)
    assert len(s._los) == 1
    assert s._los == [0] and s._his == [999]


def test_applied_set_gaps_stay_exact():
    s = _AppliedSet()
    for txn in (1, 2, 5, 6, 9):
        s.add(txn)
    assert [t for t in range(12) if t in s] == [1, 2, 5, 6, 9]
    s.add(4)  # extends [5,6] leftward
    s.add(3)  # bridges [1,2] and [4,6]
    assert s._los == [1, 9] and s._his == [6, 9]
    s.add(2)  # duplicate: no-op
    assert s._los == [1, 9] and s._his == [6, 9]


# -- copy-on-write commit path ------------------------------------------------


def make_store():
    store = MetadataStore("mds1")
    store.mkdir("/d")
    return store


def test_commit_folds_into_the_live_cache_image():
    """Commit must not replace the cache image wholesale; folding in
    place is what keeps per-transaction cost independent of the
    namespace's size."""
    store = make_store()
    cache_before = store._cache
    stable_before = store._stable
    store.apply(1, AddDentry("/d", "f", 10))
    store.commit_durable(1)
    assert store._cache is cache_before
    assert store._stable is stable_before
    assert store.lookup("/d", "f") == 10


def test_failed_commit_leaves_no_partial_state():
    """A conflicting update mid-commit (only possible when 2PL was
    bypassed) must leave the cache exactly as it was — including
    updates earlier in the same transaction."""
    store = make_store()
    # Two overlays race for the same name without locks.
    store.apply(1, AddDentry("/d", "a", 1))
    store.apply(1, AddDentry("/d", "clash", 2))
    store.apply(2, AddDentry("/d", "clash", 3))
    store.commit(2)
    with pytest.raises(UpdateError):
        store.commit(1)
    # Nothing from txn 1 leaked — not even the non-conflicting dentry.
    assert store.lookup("/d", "a") is None
    assert store.lookup("/d", "clash") == 3
    assert not store.is_visible(1)


def test_directory_tables_commit_and_harden_through_a_view():
    """``CreateDirTable`` and ``RemoveDirTable`` reach the table through
    a view's ``directories``: the overlay sees its own writes, the
    cache and then the stable image get them at commit and harden."""
    store = make_store()
    store.apply(1, CreateDirTable("/new"))
    store.apply(1, AddDentry("/new", "f", 5))
    store.apply(1, RemoveDirTable("/d"))
    with pytest.raises(UpdateError):  # the view already dropped it
        store.apply(1, AddDentry("/d", "g", 6))
    assert store.has_dir("/d") and not store.has_dir("/new")
    store.commit(1)
    assert not store.has_dir("/d") and store.listdir("/new") == {"f": 5}
    assert "/d" in store.stable_directories and "/new" not in store.stable_directories
    store.harden(1)
    assert store.stable_directories == {"/new": {"f": 5}}
    # Emptiness is checked through the view too.
    with pytest.raises(UpdateError):
        store.apply(2, RemoveDirTable("/new"))
    store.abort(2)
    store.apply(3, RemoveDentry("/new", "f"))
    store.apply(3, RemoveDirTable("/new"))
    store.apply(3, CreateDirTable("/new"))
    store.commit_durable(3)
    assert store.stable_directories == {"/new": {}}


def test_abort_discards_overlay_without_touching_cache():
    store = make_store()
    store.apply(1, AddDentry("/d", "f", 10))
    store.apply(1, CreateInode(10))
    store.abort(1)
    assert store.lookup("/d", "f") is None
    assert store.inode(10) is None
    assert store.in_flight() == []


def test_overlay_mutations_are_invisible_until_commit():
    store = make_store()
    store.apply(1, AddDentry("/d", "f", 10))
    store.apply(1, RemoveDentry("/d", "f"))  # read-your-own-writes
    assert store.lookup("/d", "f") is None
    store.apply(1, AddDentry("/d", "f", 11))
    assert store.lookup("/d", "f") is None  # still volatile
    store.commit(1)
    assert store.lookup("/d", "f") == 11


def test_inode_link_counts_fold_exactly_once():
    from repro.fs import DecLink, FileType, Inode

    store = make_store()
    store.adopt_inode(Inode(5, FileType.FILE, nlink=4))
    store.apply(1, DecLink(5))
    store.commit_durable(1)
    assert store.inode(5).nlink == 3
    assert store.stable_inodes[5].nlink == 3
    store.apply(2, DecLink(5))
    store.apply(2, DecLink(5))
    store.apply(2, DecLink(5))
    store.commit_durable(2)
    assert store.inode(5) is None
    assert 5 not in store.stable_inodes


def test_many_commits_keep_applied_watermark_compressed():
    """A long run of committed transactions must not grow the applied
    set — this is the million-txn RSS regression in miniature."""
    store = make_store()
    for txn in range(1, 2001):
        store.apply(txn, AddDentry("/d", f"f{txn}", txn))
        store.commit_durable(txn)
    assert len(store._applied._los) == 1
    assert all(store.has_applied(t) for t in (1, 1000, 2000))
    assert not store.has_applied(2001)
