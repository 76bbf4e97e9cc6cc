"""Per-MDS metadata store with transactional overlays.

Each MDS holds three layers of metadata state:

* per-transaction **overlays** -- volatile updates a transaction has
  applied but not committed (§II: servers "perform their local updates
  in the cache" before the commit protocol runs);
* the **cache** image -- committed state as the server currently sees
  it, including transactions whose log writes are still in flight (the
  1PC coordinator commits "asynchronously from the point of view of
  the client": its updates are visible in the cache while the forced
  write happens off the critical path);
* the **stable** image -- state whose log records are durable.  This is
  what survives a crash and what the invariant checker inspects.

``commit`` folds an overlay into the cache; ``harden`` folds the same
updates into the stable image once the corresponding log write is
durable (protocols call the combined ``commit_durable`` when the two
coincide).  ``abort`` discards an overlay; ``crash`` discards every
overlay *and* resets the cache to the stable image — volatile state is
gone, exactly what reboot-time recovery must rebuild from the log.

No per-transaction path copies the namespace: overlays and the
commit/harden folds run against copy-on-write :class:`_DeltaView`\\ s
of the image, and the applied-txn watermark is compressed integer
ranges (:class:`_AppliedSet`).  A view copies a directory's whole
entries dict, though, in each of the three views a dentry update passes
(overlay, cache commit, stable harden): a transaction costs O(size of
the directories it updates), at a million transactions as at ten.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from repro.fs.objects import Inode, Update, UpdateError


class _AppliedSet:
    """Exact integer-set membership, compressed as sorted disjoint
    ranges.

    Hardened transaction ids are near-contiguous (the only gaps are
    aborted transactions and the in-flight tail), so this stays a
    handful of ranges regardless of how many transactions commit —
    where a plain ``set[int]`` grew one entry per transaction forever.
    Membership answers are identical to the plain set's.
    """

    __slots__ = ("_los", "_his")

    def __init__(self) -> None:
        self._los: list[int] = []
        self._his: list[int] = []

    def add(self, txn_id: int) -> None:
        los, his = self._los, self._his
        pos = bisect_right(los, txn_id) - 1
        if pos >= 0 and txn_id <= his[pos]:
            return  # already present
        grows_left = pos >= 0 and his[pos] == txn_id - 1
        grows_right = pos + 1 < len(los) and los[pos + 1] == txn_id + 1
        if grows_left and grows_right:
            his[pos] = his[pos + 1]
            del los[pos + 1]
            del his[pos + 1]
        elif grows_left:
            his[pos] = txn_id
        elif grows_right:
            los[pos + 1] = txn_id
        else:
            los.insert(pos + 1, txn_id)
            his.insert(pos + 1, txn_id)

    def __contains__(self, txn_id: int) -> bool:
        pos = bisect_right(self._los, txn_id) - 1
        return pos >= 0 and txn_id <= self._his[pos]


class _Image:
    """A metadata image: directories (path -> {name: ino}) + inodes."""

    def __init__(self) -> None:
        self.directories: dict[str, dict[str, int]] = {}
        self.inodes: dict[int, Inode] = {}

    def copy(self) -> "_Image":
        clone = _Image()
        clone.directories = {p: dict(e) for p, e in self.directories.items()}
        clone.inodes = {i: n.copy() for i, n in self.inodes.items()}
        return clone

    def inode(self, ino: int) -> Optional[Inode]:
        return self.inodes.get(ino)

    def set_inode(self, inode: Inode) -> None:
        self.inodes[inode.ino] = inode


class _DeltaView:
    """Copy-on-write overlay over an :class:`_Image`.

    Presents the exact surface :meth:`Update.apply` uses, so a
    transaction's updates run against the live image without copying
    it: the first update of a directory copies that directory's entries
    dict, the first update of an inode copies that inode, and nothing
    else is duplicated.  :meth:`fold` pushes the copies into the base
    image in place; discarding the view (abort, or an
    :class:`UpdateError` mid-fold) leaves the base image untouched —
    the same all-or-nothing contract the old scratch-copy-and-swap
    gave, without copying the namespace.

    Correctness under concurrent transactions rests on strict 2PL:
    every object a transaction reads or writes is locked before its
    first ``apply``, so nothing another transaction could fold into
    the base between overlay creation and use is ever visible through
    this view.
    """

    __slots__ = ("_base", "_dirs", "_inodes")

    def __init__(self, base: _Image) -> None:
        self._base = base
        #: path -> this view's private entries dict, or None when removed
        self._dirs: dict[str, Optional[dict[str, int]]] = {}
        #: ino -> this view's private Inode copy, or None when deleted
        self._inodes: dict[int, Optional[Inode]] = {}

    # -- the surface Update.apply uses ----------------------------------------

    def directory(self, path: str) -> dict[str, int]:
        """``path``'s entries: this view's private copy, made on first use.
        The one place a view looks a directory up."""
        dirs = self._dirs
        entries = dirs[path] if path in dirs else self._base.directories.get(path)
        if entries is None:
            raise UpdateError(f"directory {path!r} does not exist here")
        if path not in dirs:
            # Updates mutate the returned entries in place (AddDentry,
            # RemoveDentry), so hand out a private copy, never the base's.
            entries = dirs[path] = dict(entries)
        return entries

    def create_dir(self, path: str) -> None:
        """A new, empty table for ``path``; refuses an existing one."""
        try:
            self.directory(path)
        except UpdateError:
            self._dirs[path] = {}
            return
        raise UpdateError(f"directory {path!r} already exists")

    def remove_dir(self, path: str) -> None:
        """Drop ``path``'s table; refuses a missing or non-empty one."""
        if self.directory(path):
            raise UpdateError(f"directory {path!r} is not empty")
        self._dirs[path] = None

    def has_inode(self, ino: int) -> bool:
        if ino in self._inodes:
            return self._inodes[ino] is not None
        return ino in self._base.inodes

    def inode(self, ino: int) -> Optional[Inode]:
        # Updates mutate the returned inode in place (DecLink),
        # so hand out a registered private copy, never the base inode.
        if ino in self._inodes:
            return self._inodes[ino]
        base = self._base.inodes.get(ino)
        if base is None:
            return None
        copy = base.copy()
        self._inodes[ino] = copy
        return copy

    def set_inode(self, inode: Inode) -> None:
        self._inodes[inode.ino] = inode

    def del_inode(self, ino: int) -> None:
        self._inodes[ino] = None

    def fold(self) -> None:
        """Push this view's changes into the base image, in place."""
        for table, changes in (
            (self._base.directories, self._dirs),
            (self._base.inodes, self._inodes),
        ):
            for key, value in changes.items():
                if value is None:
                    table.pop(key, None)
                else:
                    table[key] = value


class MetadataStore:
    """One MDS's share of the namespace, with transactional overlays."""

    def __init__(self, node: str):
        self.node = node
        self._stable = _Image()
        self._cache = _Image()
        #: txn_id -> (overlay view of the cache, updates in order)
        self._overlays: dict[int, tuple[_DeltaView, list[Update]]] = {}
        #: Committed-in-cache transactions whose log force is pending:
        #: txn_id -> updates (in commit order, for hardening).
        self._pending_harden: dict[int, list[Update]] = {}
        #: Transactions already folded into the stable image.  Survives
        #: crashes (models the replay watermark a real WAL keeps) so
        #: that recovery never double-applies a committed transaction.
        #: Exact membership, compressed to ranges so memory stays O(1)
        #: in committed-transaction count.
        self._applied = _AppliedSet()

    # -- provisioning (outside any transaction; test/bootstrap path) ------------

    def mkdir(self, path: str) -> None:
        """Create a directory directly in the stable + cache images."""
        if path in self._stable.directories:
            raise UpdateError(f"directory {path!r} already exists")
        self._stable.directories[path] = {}
        self._cache.directories[path] = {}

    def adopt_inode(self, inode: Inode) -> None:
        """Install an inode directly in the stable + cache images."""
        self._stable.set_inode(inode)
        self._cache.set_inode(inode.copy())

    # -- transactional path ----------------------------------------------------

    def apply(self, txn_id: int, update: Update) -> None:
        """Apply ``update`` in ``txn_id``'s volatile overlay.

        Raises :class:`UpdateError` if the update is inconsistent with
        the (overlaid) cache image; the caller then aborts.
        """
        if txn_id not in self._overlays:
            # A copy-on-write view, not a full copy: under strict 2PL
            # every object this transaction touches is locked first,
            # so reads through the view are stable for its lifetime.
            self._overlays[txn_id] = (_DeltaView(self._cache), [])
        image, updates = self._overlays[txn_id]
        update.apply(image)
        updates.append(update)

    def updates_of(self, txn_id: int) -> list[Update]:
        """``txn_id``'s updates in applied order: from its overlay while
        in flight, from the pending-harden list once it is committed in
        the cache but not yet hardened, else ``[]``."""
        if txn_id in self._overlays:
            return list(self._overlays[txn_id][1])
        return list(self._pending_harden.get(txn_id, ()))

    def commit(self, txn_id: int) -> None:
        """Fold ``txn_id``'s overlay into the cache image.

        Idempotent: committing an unknown or already-applied
        transaction is a no-op, so recovery can blindly re-commit.
        """
        entry = self._overlays.pop(txn_id, None)
        if entry is None:
            return
        if txn_id in self._applied or txn_id in self._pending_harden:
            return
        _image, updates = entry
        # Apply to a delta view first so a conflicting update (only
        # possible when the caller bypassed 2PL) cannot leave a partial
        # commit behind; folding the view mutates the cache in place.
        delta = _DeltaView(self._cache)
        for update in updates:
            update.apply(delta)
        delta.fold()
        self._pending_harden[txn_id] = updates

    def harden(self, txn_id: int) -> None:
        """Fold a committed transaction into the stable image (its log
        records are durable now)."""
        updates = self._pending_harden.pop(txn_id, None)
        if updates is None or txn_id in self._applied:
            return
        delta = _DeltaView(self._stable)
        for update in updates:
            update.apply(delta)
        delta.fold()
        self._applied.add(txn_id)

    def commit_durable(self, txn_id: int) -> None:
        """Commit and harden in one step (for protocols whose fold
        happens after the forced log write)."""
        self.commit(txn_id)
        self.harden(txn_id)

    def abort(self, txn_id: int) -> None:
        """Discard ``txn_id``'s overlay (no-op when absent)."""
        self._overlays.pop(txn_id, None)

    def crash(self) -> None:
        """Volatile state loss: overlays and unhardened commits vanish;
        the cache reverts to the stable (log-backed) image."""
        self._overlays.clear()
        self._pending_harden.clear()
        self._cache = self._stable.copy()

    def in_flight(self) -> list[int]:
        return sorted(self._overlays)

    def unhardened(self) -> list[int]:
        return sorted(self._pending_harden)

    def has_applied(self, txn_id: int) -> bool:
        """True when ``txn_id``'s updates are in the stable image
        (recovery must not replay them)."""
        return txn_id in self._applied

    def is_visible(self, txn_id: int) -> bool:
        """True when ``txn_id``'s updates are visible to reads."""
        return txn_id in self._applied or txn_id in self._pending_harden

    # -- reads (served from the cache image, as a real MDS would) ----------------

    def lookup(self, dir_path: str, name: str) -> Optional[int]:
        entries = self._cache.directories.get(dir_path)
        if entries is None:
            return None
        return entries.get(name)

    def listdir(self, dir_path: str) -> dict[str, int]:
        return dict(self._cache.directories.get(dir_path, {}))

    def has_dir(self, dir_path: str) -> bool:
        return dir_path in self._cache.directories

    def inode(self, ino: int) -> Optional[Inode]:
        node = self._cache.inode(ino)
        return node.copy() if node is not None else None

    # -- durable views (what a whole-cluster restart would recover) ---------------

    @property
    def stable_directories(self) -> dict[str, dict[str, int]]:
        return {p: dict(e) for p, e in self._stable.directories.items()}

    @property
    def stable_inodes(self) -> dict[int, Inode]:
        return {i: n.copy() for i, n in self._stable.inodes.items()}
