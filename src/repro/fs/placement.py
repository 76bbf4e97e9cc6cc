"""Metadata distribution policies.

§I of the paper: "it therefore makes sense to spread the files within
the directory across multiple MDSs and use the proposed protocol to
handle distributed transactions."  A placement policy decides which MDS
is responsible for each metadata object; when a file and its parent
directory land on different servers, the namespace operation becomes a
distributed transaction.

* :class:`HashPlacement` -- hash of the object key (the "spread files
  across MDSs" strategy that maximises distribution).
* :class:`SubtreePlacement` -- directories pin subtrees (Ceph-style
  locality; distributed transactions become rare).
* :class:`RoundRobinPlacement` -- deterministic striping of inodes
  across servers, directories pinned by hash.
* :class:`ForcedDistributedPlacement` -- directories on one server,
  inodes on another: the §IV evaluation shape, where every CREATE is a
  two-MDS transaction.
* :class:`StripedPlacement` -- K coordinator/worker pairs, one
  directory per pair (the scaling experiment).

The **namespace sharding layer** generalises these to N-MDS shard
sets, deciding how many workers a CREATE/DELETE/RENAME touches (the
participant fan-out of ``repro sweep --kind fanout``):

* :class:`ShardedHashPlacement` -- every directory has a home shard
  (stable hash of its path); the files within it stripe across the
  shard set by inode number.
* :class:`ShardedSubtreePlacement` -- directories pin by subtree map
  (longest prefix) while files stripe across the shard set instead of
  co-locating with their home directory.

Both accept a ``stripe`` subset so experiments can keep directory
metadata on dedicated coordinator shards while spreading inodes over
the workers.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Protocol, Sequence

from repro.fs.objects import ObjectId


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class PlacementPolicy(Protocol):
    """Maps metadata objects to the MDS responsible for them."""

    def place(self, obj: ObjectId) -> str:  # pragma: no cover - protocol
        ...


class HashPlacement:
    """Uniform pseudo-random placement by stable hash of the object key."""

    def __init__(self, nodes: Sequence[str]):
        if not nodes:
            raise ValueError("placement requires at least one node")
        self.nodes = list(nodes)

    def place(self, obj: ObjectId) -> str:
        return self.nodes[_stable_hash(f"{obj.kind}:{obj.key}") % len(self.nodes)]


class SubtreePlacement:
    """Pin whole subtrees to servers: an object belongs to the server of
    the nearest ancestor in ``subtree_map`` (longest-prefix match).

    Inodes are co-located with their *home directory*, supplied by the
    planner via the path hint; bare inode ids fall back to hashing.
    """

    def __init__(self, nodes: Sequence[str], subtree_map: dict[str, str]):
        if not nodes:
            raise ValueError("placement requires at least one node")
        unknown = set(subtree_map.values()) - set(nodes)
        if unknown:
            raise ValueError(f"subtree map names unknown nodes {sorted(unknown)}")
        if "/" not in subtree_map:
            raise ValueError("subtree map must cover the root '/'")
        self.nodes = list(nodes)
        self.subtree_map = dict(subtree_map)
        #: Optional hints installed by planners: inode key -> path.
        self._inode_paths: dict[str, str] = {}

    def hint_inode_path(self, ino: int, path: str) -> None:
        self._inode_paths[str(ino)] = path

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            path = obj.key
        else:
            path = self._inode_paths.get(obj.key)
            if path is None:
                return self.nodes[_stable_hash(obj.key) % len(self.nodes)]
        best = "/"
        for prefix in self.subtree_map:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                if len(prefix) > len(best):
                    best = prefix
        return self.subtree_map[best]


class RoundRobinPlacement:
    """Inodes striped across nodes by inode number; directories hashed."""

    def __init__(self, nodes: Sequence[str]):
        if not nodes:
            raise ValueError("placement requires at least one node")
        self.nodes = list(nodes)

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "inode":
            return self.nodes[int(obj.key) % len(self.nodes)]
        return self.nodes[_stable_hash(obj.key) % len(self.nodes)]


class ForcedDistributedPlacement:
    """Directories on ``dir_node``, inodes on ``inode_node``.

    With two servers this makes every CREATE/DELETE span both — the
    §IV workload shape ("it makes sense to spread the files within the
    directory across multiple MDSs").
    """

    def __init__(self, dir_node: str, inode_node: str):
        self.dir_node = dir_node
        self.inode_node = inode_node

    def place(self, obj: ObjectId) -> str:
        """Inodes to the worker, everything else to the coordinator."""
        return self.inode_node if obj.kind == "inode" else self.dir_node

    def pin(self, obj: ObjectId, node: str) -> None:
        """Accepted for interface compatibility; placement is fixed."""


class StripedPlacement:
    """Directory ``/dirK`` on server ``mds<2K-1>``, its files' inodes on
    ``mds<2K>``."""

    def __init__(self, n_pairs: int):
        self.n_pairs = n_pairs
        self._dir_of_ino: dict[str, int] = {}

    def place(self, obj: ObjectId) -> str:
        """Directory K -> coordinator of pair K; inode -> its worker."""
        if obj.kind == "dir":
            index = self._dir_index(obj.key)
            return f"mds{2 * index + 1}"
        index = int(self._dir_of_ino.get(obj.key, 0))
        return f"mds{2 * index + 2}"

    def hint_inode_path(self, ino: int, path: str) -> None:
        """Remember which directory (pair) an inode belongs to."""
        dir_path = path.rsplit("/", 1)[0] or "/"
        self._dir_of_ino[str(ino)] = self._dir_index(dir_path)

    def _dir_index(self, path: str) -> int:
        digits = "".join(ch for ch in path if ch.isdigit())
        return (int(digits) - 1) % self.n_pairs if digits else 0

    def pin(self, obj: ObjectId, node: str) -> None:
        """Placement is fixed by construction."""


def _stripe_subset(nodes: Sequence[str], stripe: Optional[Sequence[str]]) -> list[str]:
    if stripe is None:
        return list(nodes)
    if not stripe:
        raise ValueError("stripe requires at least one node")
    unknown = set(stripe) - set(nodes)
    if unknown:
        raise ValueError(f"stripe names unknown nodes {sorted(unknown)}")
    return list(stripe)


def _stripe_inode(key: str, stripe: Sequence[str]) -> str:
    """Deterministic inode striping: consecutive inode numbers visit
    consecutive shards, so a batch of b creates in one directory spans
    min(b, len(stripe)) shards."""
    if key.isdigit():
        return stripe[int(key) % len(stripe)]
    return stripe[_stable_hash(key) % len(stripe)]


class ShardedHashPlacement:
    """Hash sharding of the namespace over an N-MDS shard set.

    Every directory has a *home shard* (stable hash of its path) that
    owns its dentries; the files within it stripe across ``stripe``
    (default: all shards) by inode number — §I's "spread the files
    within the directory across multiple MDSs" as a first-class
    policy.  A CREATE touches the directory's home shard plus the
    inode's stripe shard; a batched transaction over one hot directory
    touches up to ``len(stripe)`` workers.
    """

    def __init__(self, nodes: Sequence[str], stripe: Optional[Sequence[str]] = None):
        if not nodes:
            raise ValueError("placement requires at least one node")
        self.nodes = list(nodes)
        self.stripe = _stripe_subset(self.nodes, stripe)

    def shard_of_dir(self, path: str) -> str:
        """The home shard owning ``path``'s dentries."""
        return self.nodes[_stable_hash(f"dir:{path}") % len(self.nodes)]

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            return self.shard_of_dir(obj.key)
        return _stripe_inode(obj.key, self.stripe)


class ShardedSubtreePlacement(SubtreePlacement):
    """Subtree sharding: directories pin by longest-prefix subtree map
    (Ceph-style), while files stripe across ``stripe`` (default: all
    shards) instead of co-locating with their home directory.

    Keeps directory metadata local while spreading inode load; a
    RENAME between two pinned subtrees plus the striped inode can
    touch three shards, four when it replaces a target.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        subtree_map: dict[str, str],
        stripe: Optional[Sequence[str]] = None,
    ):
        super().__init__(nodes, subtree_map)
        self.stripe = _stripe_subset(self.nodes, stripe)

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            return super().place(obj)
        return _stripe_inode(obj.key, self.stripe)


class PinnedPlacement:
    """Explicit object -> node map with a fallback policy.

    Handy in tests and experiments that need a specific distribution
    (e.g. "parent directory on mds1, new inodes on mds2" to force every
    CREATE to be a distributed transaction, as in the Figure 6
    workload).
    """

    def __init__(self, pins: dict[ObjectId, str], fallback: PlacementPolicy):
        self.pins = dict(pins)
        self.fallback = fallback

    def place(self, obj: ObjectId) -> str:
        if obj in self.pins:
            return self.pins[obj]
        return self.fallback.place(obj)

    def pin(self, obj: ObjectId, node: str) -> None:
        self.pins[obj] = node
