"""File-system invariant checking (§II).

The two invariants the paper derives from its DELETE failure scenarios:

(a) *no dangling references*: if there is a name that references a
    file, then that file (inode) exists;
(b) *no orphaned inodes*: if a file exists, it is referenced at least
    once in the namespace.

We additionally check that link counts agree with the number of
dentries, and that no two MDSs claim the same directory or inode.
The checker runs over the union of all MDS stable images — i.e. the
state that would survive a whole-cluster restart — which is exactly the
state an atomic commitment protocol must keep consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.fs.objects import FileType, Inode


@dataclass(frozen=True)
class Violation:
    """One finding of a correctness check.  The rules below report
    ``check="invariant"`` and lead ``detail`` with the rule's name."""

    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.detail}"


class StableImage(Protocol):
    """What the rules read of a store: a ``MetadataStore`` or the
    oracle's one-read snapshot of it."""

    @property
    def node(self) -> str: ...
    @property
    def stable_directories(self) -> dict[str, dict[str, int]]: ...
    @property
    def stable_inodes(self) -> dict[int, Inode]: ...


def check_invariants(stores: Iterable[StableImage]) -> list[Violation]:
    """All violations across the cluster's committed state, reading each
    image once.  Directories are exempt from rule (b): they are
    provisioned outside transactions and the root has no parent dentry.
    """
    violations: list[Violation] = []

    def violation(rule: str, subject: str, detail: str) -> None:
        violations.append(Violation("invariant", subject, f"{rule}: {detail}"))

    # Union the images, flagging double ownership on the way.
    directories: dict[str, dict[str, int]] = {}
    dir_owner: dict[str, str] = {}
    inodes: dict[int, Inode] = {}
    inode_owner: dict[int, str] = {}
    for store in stores:
        for path, entries in store.stable_directories.items():
            if path in directories:
                violation(
                    "unique-ownership",
                    path,
                    f"directory owned by both {dir_owner[path]} and {store.node}",
                )
                continue
            directories[path] = entries
            dir_owner[path] = store.node
        for ino, inode in store.stable_inodes.items():
            if ino in inodes:
                violation(
                    "unique-ownership",
                    f"inode {ino}",
                    f"inode owned by both {inode_owner[ino]} and {store.node}",
                )
                continue
            inodes[ino] = inode
            inode_owner[ino] = store.node

    # Count references.
    refs: dict[int, int] = {}
    for path, entries in directories.items():
        for name, ino in entries.items():
            refs[ino] = refs.get(ino, 0) + 1
            if ino not in inodes:
                violation(
                    "no-dangling-reference",
                    f"{path.rstrip('/')}/{name}",
                    f"references inode {ino}, which does not exist",
                )

    for ino, inode in inodes.items():
        referenced = refs.get(ino, 0)
        if referenced == 0:
            if inode.ftype is not FileType.DIRECTORY:
                violation(
                    "no-orphaned-inode",
                    f"inode {ino}",
                    "exists but is not referenced anywhere in the namespace",
                )
        elif inode.nlink != referenced:
            violation(
                "link-count",
                f"inode {ino}",
                f"nlink={inode.nlink} but referenced {referenced} times",
            )

    return violations
