"""Unit tests for placement policies and operation planning."""

import pytest

from repro.fs import (
    FileType,
    HashPlacement,
    InodeAllocator,
    ObjectId,
    PinnedPlacement,
    RoundRobinPlacement,
    SubtreePlacement,
    plan_create,
    plan_delete,
    plan_rename,
    split_path,
)

NODES = ["mds1", "mds2", "mds3", "mds4"]


def test_split_path():
    assert split_path("/a/b/c") == ("/a/b", "c")
    assert split_path("/file") == ("/", "file")
    assert split_path("/a/b/") == ("/a", "b")
    with pytest.raises(ValueError):
        split_path("/")


def test_hash_placement_deterministic_and_covers_nodes():
    p = HashPlacement(NODES)
    obj = ObjectId.directory("/dir1")
    assert p.place(obj) == p.place(obj)
    hits = {p.place(ObjectId.inode(i)) for i in range(200)}
    assert hits == set(NODES)


def test_hash_placement_requires_nodes():
    with pytest.raises(ValueError):
        HashPlacement([])


def test_round_robin_stripes_inodes():
    p = RoundRobinPlacement(NODES)
    assert p.place(ObjectId.inode(0)) == "mds1"
    assert p.place(ObjectId.inode(1)) == "mds2"
    assert p.place(ObjectId.inode(5)) == "mds2"


def test_subtree_placement_longest_prefix():
    p = SubtreePlacement(NODES, {"/": "mds1", "/home": "mds2", "/home/alice": "mds3"})
    assert p.place(ObjectId.directory("/etc")) == "mds1"
    assert p.place(ObjectId.directory("/home/bob")) == "mds2"
    assert p.place(ObjectId.directory("/home/alice/doc")) == "mds3"
    assert p.place(ObjectId.directory("/home")) == "mds2"


def test_subtree_placement_validation():
    with pytest.raises(ValueError):
        SubtreePlacement(NODES, {"/home": "mds1"})  # no root
    with pytest.raises(ValueError):
        SubtreePlacement(NODES, {"/": "ghost"})


def test_subtree_placement_inode_hints_colocate():
    p = SubtreePlacement(NODES, {"/": "mds1", "/home": "mds2"})
    p.hint_inode_path(42, "/home/file")
    assert p.place(ObjectId.inode(42)) == "mds2"


def test_pinned_placement_overrides_fallback():
    fallback = HashPlacement(NODES)
    obj = ObjectId.directory("/dir1")
    p = PinnedPlacement({obj: "mds4"}, fallback)
    assert p.place(obj) == "mds4"
    other = ObjectId.directory("/other")
    assert p.place(other) == fallback.place(other)
    p.pin(other, "mds1")
    assert p.place(other) == "mds1"


def force_distributed_placement():
    """Parent dir on mds1, every inode on mds2 (the Fig. 6 setup)."""
    fallback = HashPlacement(["mds1", "mds2"])
    p = PinnedPlacement({ObjectId.directory("/dir1"): "mds1"}, fallback)
    orig_place = p.place

    class Wrapper:
        def place(self, obj):
            if obj.kind == "inode":
                return "mds2"
            return orig_place(obj)

    return Wrapper()


def test_plan_create_distributed():
    placement = force_distributed_placement()
    alloc = InodeAllocator(start=100)
    plan = plan_create("/dir1/f0", placement, alloc)
    assert plan.op == "CREATE"
    assert plan.coordinator == "mds1"
    assert plan.workers == ["mds2"]
    assert plan.is_distributed
    assert plan.detail["ino"] == 100
    assert [type(u).__name__ for u in plan.updates["mds1"]] == ["AddDentry"]
    assert [type(u).__name__ for u in plan.updates["mds2"]] == ["CreateInode"]


def test_plan_create_local_when_colocated():
    placement = HashPlacement(["only"])
    plan = plan_create("/dir1/f0", placement, InodeAllocator())
    assert not plan.is_distributed
    assert plan.participants == ["only"]


def test_plan_create_allocates_fresh_inodes():
    placement = HashPlacement(["only"])
    alloc = InodeAllocator(start=5)
    p1 = plan_create("/dir1/a", placement, alloc)
    p2 = plan_create("/dir1/b", placement, alloc)
    assert p1.detail["ino"] == 5 and p2.detail["ino"] == 6


def test_plan_create_directory_type():
    placement = HashPlacement(["only"])
    plan = plan_create("/dir1/sub", placement, InodeAllocator(), ftype=FileType.DIRECTORY)
    create = plan.updates["only"][-1]
    assert create.ftype is FileType.DIRECTORY


def test_plan_delete_distributed():
    placement = force_distributed_placement()
    plan = plan_delete("/dir1/f0", ino=100, placement=placement)
    assert plan.coordinator == "mds1"
    assert plan.workers == ["mds2"]
    assert [type(u).__name__ for u in plan.updates["mds2"]] == ["DecLink"]


def test_plan_locks_deterministic_and_deduplicated():
    placement = HashPlacement(["only"])
    alloc = InodeAllocator(start=7)
    plan = plan_create("/dir1/f0", placement, alloc)
    locks = plan.locks("only")
    assert locks == [ObjectId.directory("/dir1"), ObjectId.inode(7)]
    assert plan.locks("ghost") == []


def test_plan_rename_up_to_four_participants():
    # Four distinct nodes: src dir, dst dir, replaced inode, renamed inode.
    class FourWay:
        def place(self, obj):
            if obj == ObjectId.directory("/a"):
                return "mds1"
            if obj == ObjectId.directory("/b"):
                return "mds2"
            if obj == ObjectId.inode(50):
                return "mds3"
            return "mds4"

    plan = plan_rename("/a/x", "/b/y", ino=60, placement=FourWay(), replaced_ino=50)
    assert set(plan.participants) == {"mds1", "mds2", "mds3", "mds4"}
    assert plan.coordinator == "mds1"
    assert plan.op == "RENAME"
    assert plan.detail["dst"] == "/b/y"


def test_plan_rename_two_participants_without_replace():
    class TwoWay:
        def place(self, obj):
            return "mds1" if obj.kind == "dir" else "mds2"

    plan = plan_rename("/a/x", "/a/y", ino=60, placement=TwoWay(), touch_inode=True)
    assert set(plan.participants) == {"mds1", "mds2"}


def test_plan_rename_onto_itself_rejected():
    with pytest.raises(ValueError):
        plan_rename("/a/x", "/a/x", ino=1, placement=HashPlacement(["only"]))


def test_plan_describe_roundtrips_updates():
    from repro.fs import update_from_description

    placement = HashPlacement(["only"])
    plan = plan_create("/dir1/f0", placement, InodeAllocator(start=9))
    desc = plan.describe()
    revived = [update_from_description(d) for d in desc["updates"]["only"]]
    assert revived == plan.updates["only"]


def test_plan_from_description_inverts_describe():
    """Every planner's output survives the redo-record round trip."""
    import json

    from repro.core.batching import BatchPlanner
    from repro.fs import OpPlan
    from repro.fs.operations import plan_link, plan_migrate, plan_mkdir, plan_rmdir

    placement = force_distributed_placement()
    alloc = InodeAllocator(start=20)
    plans = [
        plan_create("/dir1/f0", placement, alloc),
        plan_mkdir("/dir1/sub", placement, alloc),
        plan_rmdir("/dir1/sub", ino=21, placement=placement),
        plan_delete("/dir1/f0", ino=20, placement=placement),
        plan_link("/dir1/f0", "/dir1/hard", ino=20, placement=placement),
        plan_migrate("/dir1", {"f0": 20, "f1": 22}, "mds1", "mds2"),
        plan_rename("/dir1/f0", "/dir1/f9", ino=20, placement=placement, replaced_ino=22),
    ]
    plans.append(
        BatchPlanner(max_batch=3, max_workers=None).merge(
            [plan_create(f"/dir1/b{i}", placement, alloc) for i in range(3)]
        )
    )
    assert [p.op for p in plans] == [
        "CREATE", "MKDIR", "RMDIR", "DELETE", "LINK", "MIGRATE", "RENAME", "BATCH",
    ]
    for plan in plans:
        # Through JSON, as a log record on shared storage would travel.
        desc = json.loads(json.dumps(plan.describe()))
        assert OpPlan.from_description(desc) == plan


def test_plan_coordinator_must_have_updates():
    from repro.fs import AddDentry, OpPlan

    with pytest.raises(ValueError):
        OpPlan(
            op="CREATE",
            path="/x",
            updates={"mds2": [AddDentry("/", "x", 1)]},
            coordinator="mds1",
        )


def test_plan_roles_are_derived_once_and_rederived_by_replace():
    """``workers``/``participants`` are fields filled at construction
    and shared with every reader; a plan with other roles is a new plan."""
    from dataclasses import replace

    from repro.fs.placement import ForcedDistributedPlacement
    from repro.protocols.base import Transaction

    plan = plan_create("/d/f", ForcedDistributedPlacement("mds2", "mds1"), InodeAllocator())
    assert plan.coordinator == "mds2"
    assert plan.workers == ["mds1"] and plan.participants == ["mds2", "mds1"]
    assert plan.workers is plan.workers and plan.participants is plan.participants

    txn = Transaction(txn_id=1, plan=plan, client="c1", submitted_at=0.0)
    assert txn.workers is plan.workers

    wide = replace(plan, updates={**plan.updates, "mds4": [], "mds3": []})
    assert wide.workers == ["mds1", "mds3", "mds4"]
    assert wide.participants == ["mds2", "mds1", "mds3", "mds4"]
    moved = replace(plan, coordinator="mds1")
    assert moved.workers == ["mds2"] and moved.participants == ["mds1", "mds2"]
    # The original is untouched, and the derived fields are not part of
    # a plan's identity (``from_description`` round-trips compare equal).
    assert plan.workers == ["mds1"]
    assert replace(plan) == plan and "workers" not in repr(plan)
    with pytest.raises(ValueError):
        replace(plan, workers=["mds9"])
