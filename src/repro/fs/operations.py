"""Namespace operations planned as (possibly distributed) transactions.

A plan names the participating MDSs and the updates each applies.  The
MDS responsible for the *parent directory* receives the client request
and acts as the transaction coordinator (it performs "the first
metadata update" in the paper's Figure 5); every other participant is a
worker.

The plans are the paper's three namespace operations (§I) and the
MIGRATE of §V.  CREATE and DELETE involve at most two MDSs; RENAME can
involve up to four, which is why the 1PC protocol — limited to one
worker — delegates wide RENAMEs to PrN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Optional

from repro.fs.objects import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    DecLink,
    FileType,
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
    #: More than one participant.
    is_distributed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coordinator not in self.updates:
            raise ValueError(
                f"coordinator {self.coordinator!r} has no updates in plan {self.op}"
            )
        self.workers = sorted(self.updates.keys() - {self.coordinator})
        self.participants = [self.coordinator] + self.workers
        self.is_distributed = bool(self.workers)

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
                node: list(map(methodcaller("describe"), ups))
                for node, ups in self.updates.items()
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
    updates.setdefault(dir_node, []).append(AddDentry(parent, name, ino))
    updates.setdefault(ino_node, []).append(CreateInode(ino, ftype))
    return OpPlan(
        op="CREATE", path=path, updates=updates, coordinator=dir_node, detail={"ino": ino}
    )


def plan_delete(path: str, ino: int, placement: PlacementPolicy) -> OpPlan:
    """DELETE *path* (inode ``ino``): unlink at the parent's MDS, drop
    the link count (and possibly the inode) at the inode's MDS."""
    parent, name = split_path(path)
    dir_node = placement.place(ObjectId.directory(parent))
    ino_node = placement.place(ObjectId.inode(ino))
    updates: dict[str, list[Update]] = {}
    updates.setdefault(dir_node, []).append(RemoveDentry(parent, name))
    updates.setdefault(ino_node, []).append(DecLink(ino))
    return OpPlan(
        op="DELETE", path=path, updates=updates, coordinator=dir_node, detail={"ino": ino}
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
    updates.setdefault(src_node, []).append(RemoveDentry(src_parent, src_name))
    if replaced_ino is not None:
        # POSIX rename atomically replaces an existing target: drop the
        # old dentry before installing the new one, and unlink the
        # replaced inode wherever it lives.
        updates.setdefault(dst_node, []).append(RemoveDentry(dst_parent, dst_name))
    updates.setdefault(dst_node, []).append(AddDentry(dst_parent, dst_name, ino))
    if replaced_ino is not None:
        replaced_node = placement.place(ObjectId.inode(replaced_ino))
        updates.setdefault(replaced_node, []).append(DecLink(replaced_ino))
    if touch_inode:
        ino_node = placement.place(ObjectId.inode(ino))
        updates.setdefault(ino_node, []).append(TouchInode(ino))
    return OpPlan(
        op="RENAME",
        path=src,
        updates=updates,
        coordinator=src_node,
        detail={"ino": ino, "dst": dst, "replaced_ino": replaced_ino},
    )
