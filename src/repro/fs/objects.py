"""Metadata objects and the updates that mutate them.

Objects are identified by :class:`ObjectId`: directories by path,
inodes by inode number.  The lock manager locks ``ObjectId``s; the
metadata store applies :class:`Update`s to them.

Updates are small, serialisable command objects — exactly what a
write-ahead log or a 1PC redo record stores — with an ``apply`` method
executed against a store image.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.store import _DeltaView

    #: What ``Update.apply`` runs against: a copy-on-write view of an
    #: image (a transaction's overlay, or a commit or harden fold).
    ImageView = _DeltaView


class FileType(str, Enum):
    FILE = "file"
    DIRECTORY = "dir"


class ObjectId(str):
    """A lockable, locatable metadata object: ``kind`` is ``"dir"``
    (keyed by absolute path) or ``"inode"`` (keyed by inode number).

    The value is the text ``kind:key``, so hashing and comparing one
    runs no Python frame, and ``str()`` and JSON give that text.
    ``kind`` is a class attribute of one subclass per kind, ``key`` a
    C-level slice of the text; there is no ``__dict__`` to assign to.
    """

    __slots__ = ()
    kind: str

    def __new__(cls, kind: str, key: str) -> "ObjectId":
        sub = _KINDS.get(kind)
        if sub is None:
            raise ValueError(f"unknown object kind {kind!r}")
        return str.__new__(sub, f"{kind}:{key}")

    @staticmethod
    def directory(path: str) -> "ObjectId":
        return str.__new__(_DirectoryId, "dir:" + path)

    @staticmethod
    def inode(ino: int) -> "ObjectId":
        return str.__new__(_InodeId, f"inode:{ino}")

    def __repr__(self) -> str:
        return f"ObjectId(kind={self.kind!r}, key={self.key!r})"

    def __reduce__(self) -> tuple[Any, ...]:
        # str's own reduction would call ``__new__`` with the text alone.
        return (ObjectId, (self.kind, self.key))


class _DirectoryId(ObjectId):
    __slots__ = ()
    kind = "dir"
    key = property(itemgetter(slice(len("dir:"), None)))


class _InodeId(ObjectId):
    __slots__ = ()
    kind = "inode"
    key = property(itemgetter(slice(len("inode:"), None)))


_KINDS = {"dir": _DirectoryId, "inode": _InodeId}


@dataclass
class Inode:
    """An inode: type plus a link count (the data path is out of scope)."""

    ino: int
    ftype: FileType
    nlink: int = 1

    def copy(self) -> "Inode":
        return Inode(self.ino, self.ftype, self.nlink)


class UpdateError(Exception):
    """An update could not be applied (missing object, duplicate name...)."""


@dataclass(frozen=True)
class Update:
    """Base class for metadata updates.  Subclasses define ``target``
    (the ObjectId they lock/modify) and ``apply``."""

    def target(self) -> ObjectId:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply(self, image: "ImageView") -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Serialisable form (stored in redo records)."""
        return {"type": type(self).__name__, **self.__dict__}


@dataclass(frozen=True)
class AddDentry(Update):
    """Link ``name`` -> ``ino`` into directory ``dir_path``."""

    dir_path: str
    name: str
    ino: int

    def target(self) -> ObjectId:
        return ObjectId.directory(self.dir_path)

    def apply(self, image: "ImageView") -> None:
        entries = image.directory(self.dir_path)
        if self.name in entries:
            raise UpdateError(f"{self.dir_path}/{self.name} already exists")
        entries[self.name] = self.ino


@dataclass(frozen=True)
class RemoveDentry(Update):
    """Unlink ``name`` from directory ``dir_path``."""

    dir_path: str
    name: str

    def target(self) -> ObjectId:
        return ObjectId.directory(self.dir_path)

    def apply(self, image: "ImageView") -> None:
        entries = image.directory(self.dir_path)
        if self.name not in entries:
            raise UpdateError(f"{self.dir_path}/{self.name} does not exist")
        del entries[self.name]


@dataclass(frozen=True)
class CreateInode(Update):
    """Materialise a fresh inode with link count 1."""

    ino: int
    ftype: FileType = FileType.FILE

    def target(self) -> ObjectId:
        return ObjectId.inode(self.ino)

    def apply(self, image: "ImageView") -> None:
        if image.has_inode(self.ino):
            raise UpdateError(f"inode {self.ino} already exists")
        image.set_inode(Inode(self.ino, self.ftype, nlink=1))


@dataclass(frozen=True)
class DecLink(Update):
    """Decrement an inode's link count; delete it at zero (§II DELETE
    step (b): update the reference counter and optionally delete)."""

    ino: int

    def target(self) -> ObjectId:
        return ObjectId.inode(self.ino)

    def apply(self, image: "ImageView") -> None:
        inode = image.inode(self.ino)
        if inode is None:
            raise UpdateError(f"inode {self.ino} does not exist")
        inode.nlink -= 1
        if inode.nlink <= 0:
            image.del_inode(self.ino)


@dataclass(frozen=True)
class CreateDirTable(Update):
    """Materialise an (empty) directory table for ``path``: a
    MIGRATE's destination opens the table it refills."""

    path: str

    def target(self) -> ObjectId:
        return ObjectId.directory(self.path)

    def apply(self, image: "ImageView") -> None:
        image.create_dir(self.path)


@dataclass(frozen=True)
class RemoveDirTable(Update):
    """Drop the directory table for ``path``; fails unless empty.

    The emptiness check runs where the directory lives, under its
    exclusive lock — a concurrent create in the directory therefore
    serialises against the drop, and a non-empty directory makes the
    worker vote NO (ENOTEMPTY).  A MIGRATE's source drops the table
    it emptied.
    """

    path: str

    def target(self) -> ObjectId:
        return ObjectId.directory(self.path)

    def apply(self, image: "ImageView") -> None:
        image.remove_dir(self.path)


@dataclass(frozen=True)
class TouchInode(Update):
    """Attribute-only write to an inode (mtime/parent pointer during
    RENAME).  Semantically a no-op for the invariant checker but it
    costs a write and a lock like any other update."""

    ino: int

    def target(self) -> ObjectId:
        return ObjectId.inode(self.ino)

    def apply(self, image: "ImageView") -> None:
        inode = image.inode(self.ino)
        if inode is None:
            raise UpdateError(f"inode {self.ino} does not exist")


#: Registry used to revive updates from redo-record payloads.
_UPDATE_TYPES = {
    cls.__name__: cls
    for cls in (
        AddDentry,
        RemoveDentry,
        CreateInode,
        DecLink,
        TouchInode,
        CreateDirTable,
        RemoveDirTable,
    )
}


def update_from_description(description: dict[str, Any]) -> Update:
    """Inverse of :meth:`Update.describe` (redo-record deserialisation)."""
    desc = dict(description)
    type_name = desc.pop("type")
    if type_name not in _UPDATE_TYPES:
        raise ValueError(f"unknown update type {type_name!r}")
    if type_name == "CreateInode" and "ftype" in desc:
        desc["ftype"] = FileType(desc["ftype"])
    return _UPDATE_TYPES[type_name](**desc)
