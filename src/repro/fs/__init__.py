"""Metadata file-system substrate.

Models the *metadata* half of a parallel file system: inodes, dentries
and directories distributed across a cluster of metadata servers
(Figure 1 of the paper).  The data path is out of scope — exactly as in
the paper, which studies namespace operations only.

* :mod:`repro.fs.objects` -- inodes, object identifiers, updates.
* :mod:`repro.fs.store` -- per-MDS metadata store with transactional
  overlays (volatile cache) over a stable image, redo replay, crash
  semantics.
* :mod:`repro.fs.placement` -- metadata distribution policies that
  decide which MDS is responsible for which object.
* :mod:`repro.fs.operations` -- CREATE / DELETE / RENAME planned as
  (possibly distributed) transactions.
* :mod:`repro.fs.invariants` -- the file-system invariants of §II whose
  violation the ACPs exist to prevent.
"""

from repro.fs.invariants import Violation, check_invariants
from repro.fs.objects import (
    AddDentry,
    CreateDirTable,
    CreateInode,
    DecLink,
    FileType,
    IncLink,
    Inode,
    ObjectId,
    RemoveDentry,
    RemoveDirTable,
    TouchInode,
    Update,
    UpdateError,
    update_from_description,
)
from repro.fs.operations import (
    InodeAllocator,
    OpPlan,
    UnsupportedOperation,
    plan_create,
    plan_delete,
    plan_link,
    plan_migrate,
    plan_mkdir,
    plan_rename,
    plan_rmdir,
)
from repro.fs.operations import split_path
from repro.fs.placement import (
    ForcedDistributedPlacement,
    HashPlacement,
    PinnedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    ShardedHashPlacement,
    ShardedSubtreePlacement,
    StripedPlacement,
    SubtreePlacement,
)
from repro.fs.store import MetadataStore

__all__ = [
    "AddDentry",
    "CreateDirTable",
    "CreateInode",
    "DecLink",
    "FileType",
    "ForcedDistributedPlacement",
    "HashPlacement",
    "IncLink",
    "Inode",
    "InodeAllocator",
    "MetadataStore",
    "ObjectId",
    "OpPlan",
    "PinnedPlacement",
    "PlacementPolicy",
    "RemoveDentry",
    "RemoveDirTable",
    "RoundRobinPlacement",
    "ShardedHashPlacement",
    "ShardedSubtreePlacement",
    "StripedPlacement",
    "SubtreePlacement",
    "TouchInode",
    "UnsupportedOperation",
    "Update",
    "UpdateError",
    "Violation",
    "check_invariants",
    "plan_create",
    "plan_delete",
    "plan_link",
    "plan_migrate",
    "plan_mkdir",
    "plan_rename",
    "plan_rmdir",
    "split_path",
    "update_from_description",
]
