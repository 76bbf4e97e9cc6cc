"""Namespace operations planned as (possibly distributed) transactions.

A plan names the participating MDSs and the updates each applies.  The
MDS responsible for the *parent directory* receives the client request
and acts as the transaction coordinator (it performs "the first
metadata update" in the paper's Figure 5); every other participant is a
worker.

CREATE and DELETE involve at most two MDSs; RENAME can involve up to
four (§I), which is why the 1PC protocol — limited to one worker —
delegates wide RENAMEs to a 2PC-family protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.fs.objects import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    DecLink,
    FileType,
    IncLink,
    ObjectId,
    RemoveDentry,
    RemoveDirTable,
    TouchInode,
    Update,
    update_from_description,
)
from repro.fs.placement import PlacementPolicy


class UnsupportedOperation(Exception):
    """The operation cannot be expressed for the chosen protocol."""


def split_path(path: str) -> tuple[str, str]:
    """('/a/b/c') -> ('/a/b', 'c'); root-level files parent to '/'."""
    path = path.rstrip("/")
    if not path or path == "/":
        raise ValueError("cannot split the root path")
    head, _, tail = path.rpartition("/")
    return (head or "/", tail)


class InodeAllocator:
    """Monotonic inode-number allocator (one per cluster)."""

    def __init__(self, start: int = 1000):
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)


@dataclass
class OpPlan:
    """A namespace operation resolved into per-MDS update lists.

    Roles are fixed at construction: ``workers`` and ``participants``
    are derived once and the same two lists go to every reader
    (``Transaction.workers`` is ``plan.workers``).  Callers must not
    mutate them — a log record keeps ``list(workers)`` — and a plan with
    other roles is a new plan: ``dataclasses.replace`` derives them again.
    """

    op: str
    path: str
    #: node -> ordered updates that node applies.
    updates: dict[str, list[Update]]
    #: The MDS that receives the client request (parent-directory MDS).
    coordinator: str
    #: Extra detail (new inode number, destination path...).
    detail: dict = field(default_factory=dict)
    #: Every participant but the coordinator, sorted.
    workers: list[str] = field(init=False, repr=False, compare=False)
    #: Coordinator first, then the workers.
    participants: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coordinator not in self.updates:
            raise ValueError(
                f"coordinator {self.coordinator!r} has no updates in plan {self.op}"
            )
        self.workers = sorted(n for n in self.updates if n != self.coordinator)
        self.participants = [self.coordinator] + self.workers

    @property
    def is_distributed(self) -> bool:
        return len(self.updates) > 1

    def locks(self, node: str) -> list[ObjectId]:
        """Objects ``node`` must lock, in deterministic order."""
        seen: dict[ObjectId, None] = {}
        for update in self.updates.get(node, []):
            seen.setdefault(update.target())
        return list(seen)

    def describe(self) -> dict:
        """Serialisable form for 1PC redo records."""
        return {
            "op": self.op,
            "path": self.path,
            "coordinator": self.coordinator,
            "updates": {
                node: [u.describe() for u in ups] for node, ups in self.updates.items()
            },
            "detail": dict(self.detail),
        }

    @classmethod
    def from_description(cls, desc: dict) -> "OpPlan":
        """Inverse of :meth:`describe` (redo records, replicated BEGINs)."""
        return cls(
            op=desc["op"],
            path=desc["path"],
            updates={
                node: [update_from_description(d) for d in descs]
                for node, descs in desc["updates"].items()
            },
            coordinator=desc["coordinator"],
            detail=dict(desc.get("detail", {})),
        )


def _merge(updates: dict[str, list[Update]], node: str, update: Update) -> None:
    updates.setdefault(node, []).append(update)


def plan_create(
    path: str,
    placement: PlacementPolicy,
    allocator: InodeAllocator,
    ftype: FileType = FileType.FILE,
) -> OpPlan:
    """CREATE *path*: add a dentry at the parent's MDS, materialise the
    inode at the inode's MDS."""
    parent, name = split_path(path)
    ino = allocator.next()
    hint = getattr(placement, "hint_inode_path", None)
    if hint is not None:
        hint(ino, path)
    dir_node = placement.place(ObjectId.directory(parent))
    ino_node = placement.place(ObjectId.inode(ino))
    updates: dict[str, list[Update]] = {}
    _merge(updates, dir_node, AddDentry(parent, name, ino))
    _merge(updates, ino_node, CreateInode(ino, ftype))
    return OpPlan(
        op="CREATE", path=path, updates=updates, coordinator=dir_node, detail={"ino": ino}
    )


def plan_mkdir(
    path: str,
    placement: PlacementPolicy,
    allocator: InodeAllocator,
) -> OpPlan:
    """MKDIR *path*: link a dentry at the parent's MDS; materialise the
    directory inode and its (empty) table at the new directory's MDS.

    The new directory's home is decided by the placement of the
    directory object itself, so subsequent operations inside it are
    local to that MDS.
    """
    parent, name = split_path(path)
    ino = allocator.next()
    hint = getattr(placement, "hint_inode_path", None)
    if hint is not None:
        hint(ino, path)
    parent_node = placement.place(ObjectId.directory(parent))
    dir_node = placement.place(ObjectId.directory(path))
    updates: dict[str, list[Update]] = {}
    _merge(updates, parent_node, AddDentry(parent, name, ino))
    _merge(updates, dir_node, CreateInode(ino, FileType.DIRECTORY))
    _merge(updates, dir_node, CreateDirTable(path))
    return OpPlan(
        op="MKDIR", path=path, updates=updates, coordinator=parent_node, detail={"ino": ino}
    )


def plan_rmdir(path: str, ino: int, placement: PlacementPolicy) -> OpPlan:
    """RMDIR *path* (directory inode ``ino``): unlink at the parent,
    drop the (must-be-empty) table and the inode at the directory's
    MDS."""
    parent, name = split_path(path)
    parent_node = placement.place(ObjectId.directory(parent))
    dir_node = placement.place(ObjectId.directory(path))
    updates: dict[str, list[Update]] = {}
    _merge(updates, parent_node, RemoveDentry(parent, name))
    _merge(updates, dir_node, RemoveDirTable(path))
    _merge(updates, dir_node, DecLink(ino))
    return OpPlan(
        op="RMDIR", path=path, updates=updates, coordinator=parent_node, detail={"ino": ino}
    )


def plan_delete(path: str, ino: int, placement: PlacementPolicy) -> OpPlan:
    """DELETE *path* (inode ``ino``): unlink at the parent's MDS, drop
    the link count (and possibly the inode) at the inode's MDS."""
    parent, name = split_path(path)
    dir_node = placement.place(ObjectId.directory(parent))
    ino_node = placement.place(ObjectId.inode(ino))
    updates: dict[str, list[Update]] = {}
    _merge(updates, dir_node, RemoveDentry(parent, name))
    _merge(updates, ino_node, DecLink(ino))
    return OpPlan(
        op="DELETE", path=path, updates=updates, coordinator=dir_node, detail={"ino": ino}
    )


def plan_link(
    target_path: str,
    link_path: str,
    ino: int,
    placement: PlacementPolicy,
) -> OpPlan:
    """LINK: a new name *link_path* for the existing inode ``ino``.

    Two MDSs at most: the new dentry's parent and the inode's home
    (whose link count grows).
    """
    if target_path == link_path:
        raise ValueError("link onto itself")
    parent, name = split_path(link_path)
    dir_node = placement.place(ObjectId.directory(parent))
    ino_node = placement.place(ObjectId.inode(ino))
    updates: dict[str, list[Update]] = {}
    _merge(updates, dir_node, AddDentry(parent, name, ino))
    _merge(updates, ino_node, IncLink(ino))
    return OpPlan(
        op="LINK",
        path=link_path,
        updates=updates,
        coordinator=dir_node,
        detail={"ino": ino, "target": target_path},
    )


def plan_migrate(
    path: str,
    entries: dict[str, int],
    src_node: str,
    dst_node: str,
) -> OpPlan:
    """MIGRATE: move directory ``path`` (its table and every dentry)
    from ``src_node`` to ``dst_node`` as one atomic transaction.

    This is the Ursa Minor alternative the paper contrasts with in §V:
    instead of running distributed transactions per operation, move
    metadata responsibility so subsequent operations are local.  The
    plan is built entirely from the ordinary update vocabulary — the
    dentries leave the source (emptying the table so it can be
    dropped) and rematerialise at the destination — so it commits
    under any registered protocol and inherits full crash atomicity.

    The cost is what makes migration "more heavyweight compared to the
    protocols discussed here": the log bytes scale with the directory's
    current size.
    """
    if src_node == dst_node:
        raise ValueError("migration source and destination are the same node")
    updates: dict[str, list[Update]] = {src_node: [], dst_node: []}
    updates[dst_node].append(CreateDirTable(path))
    for name in sorted(entries):
        updates[src_node].append(RemoveDentry(path, name))
        updates[dst_node].append(AddDentry(path, name, entries[name]))
    # With every dentry removed first, the (now empty) table can go.
    updates[src_node].append(RemoveDirTable(path))
    return OpPlan(
        op="MIGRATE",
        path=path,
        updates=updates,
        coordinator=src_node,
        detail={"dst": dst_node, "n_entries": len(entries)},
    )


def plan_rename(
    src: str,
    dst: str,
    ino: int,
    placement: PlacementPolicy,
    replaced_ino: Optional[int] = None,
    touch_inode: bool = True,
) -> OpPlan:
    """RENAME *src* -> *dst* (inode ``ino``).

    Participants: the source parent's MDS (unlink), the destination
    parent's MDS (link), optionally the MDS of a replaced destination
    inode (unlink count) and the MDS of the renamed inode itself
    (attribute touch) — up to four MDSs, matching §I.
    """
    src_parent, src_name = split_path(src)
    dst_parent, dst_name = split_path(dst)
    if src == dst:
        raise ValueError("rename onto itself")
    src_node = placement.place(ObjectId.directory(src_parent))
    dst_node = placement.place(ObjectId.directory(dst_parent))
    updates: dict[str, list[Update]] = {}
    _merge(updates, src_node, RemoveDentry(src_parent, src_name))
    if replaced_ino is not None:
        # POSIX rename atomically replaces an existing target: drop the
        # old dentry before installing the new one, and unlink the
        # replaced inode wherever it lives.
        _merge(updates, dst_node, RemoveDentry(dst_parent, dst_name))
    _merge(updates, dst_node, AddDentry(dst_parent, dst_name, ino))
    if replaced_ino is not None:
        _merge(updates, placement.place(ObjectId.inode(replaced_ino)), DecLink(replaced_ino))
    if touch_inode:
        _merge(updates, placement.place(ObjectId.inode(ino)), TouchInode(ino))
    return OpPlan(
        op="RENAME",
        path=src,
        updates=updates,
        coordinator=src_node,
        detail={"ino": ino, "dst": dst, "replaced_ino": replaced_ino},
    )
