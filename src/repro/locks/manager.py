"""Lock table with shared/exclusive modes, FIFO queueing and timeouts."""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Generator, Hashable, Optional

from repro.sim import TIMED_OUT, Event, Simulator
from repro.sim.events import PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class LockMode(str, Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED

    #: ``str(mode)`` is the bare value, as ``enum.StrEnum`` spells it:
    #: what the hub's lock hooks record.
    __str__ = str.__str__


class LockTimeout(Exception):
    """Raised when a lock is not granted within the caller's timeout.

    The 2PC coordinator uses this to abort a transaction and release
    its locks (deadlock avoidance by timeout, §II-B).
    """

    def __init__(self, txn_id: Hashable, obj_id: Hashable):
        super().__init__(f"txn {txn_id} timed out waiting for lock on {obj_id}")
        self.txn_id = txn_id
        self.obj_id = obj_id


class _Waiter(Event):  # a queued request is its own grant event
    __slots__ = ("txn_id", "mode")

    def __init__(self, sim: Simulator, txn_id: Hashable, mode: LockMode):
        self.txn_id = txn_id
        self.mode = mode
        Event.__init__(self, sim, name=f"lock-grant:{txn_id}")


class _LockEntry:
    """State of one lockable object."""

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        #: txn_id -> mode currently held.
        self.holders: dict[Hashable, LockMode] = {}
        self.queue: deque[_Waiter] = deque()


class LockManager:
    """Per-MDS strict-2PL lock table."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "lockmgr",
        obs: "Observability | None" = None,
    ):
        from repro.obs.hub import Observability

        self.sim = sim
        self.name = name
        self.obs = obs if obs is not None else Observability(sim, "off")
        self._table: dict[Hashable, _LockEntry] = {}

    # -- introspection ----------------------------------------------------------

    def holders(self, obj_id: Hashable) -> dict[Hashable, LockMode]:
        entry = self._table.get(obj_id)
        return dict(entry.holders) if entry else {}

    def queue_length(self, obj_id: Hashable) -> int:
        entry = self._table.get(obj_id)
        return len(entry.queue) if entry else 0

    def holds(self, txn_id: Hashable, obj_id: Hashable, mode: Optional[LockMode] = None) -> bool:
        held = self._table.get(obj_id)
        if held is None or txn_id not in held.holders:
            return False
        if mode is None:
            return True
        if mode is LockMode.SHARED:
            return True  # X implies S
        return held.holders[txn_id] is LockMode.EXCLUSIVE

    def locks_of(self, txn_id: Hashable) -> list[Hashable]:
        return [obj for obj, entry in self._table.items() if txn_id in entry.holders]

    def waiting_for(self, txn_id: Hashable) -> list[Hashable]:
        """Objects ``txn_id`` is currently queued on (for wait-for graphs)."""
        out = []
        for obj, entry in self._table.items():
            if any(w.txn_id == txn_id for w in entry.queue):
                out.append(obj)
        return out

    # -- acquisition ---------------------------------------------------------------

    def _entry(self, obj_id: Hashable) -> _LockEntry:
        entry = self._table.get(obj_id)
        if entry is None:
            entry = self._table[obj_id] = _LockEntry()
        return entry

    def _grantable(self, entry: _LockEntry, txn_id: Hashable, mode: LockMode) -> bool:
        """Whether ``txn_id`` may hold ``mode`` beside the other holders:
        a shared request fits only other shared holders, an exclusive one
        none.  Reads the holders in place and allocates nothing."""
        if mode is LockMode.SHARED:
            for holder, held in entry.holders.items():
                if held is not LockMode.SHARED and holder != txn_id:
                    return False
            return True
        for holder in entry.holders:
            if holder != txn_id:
                return False
        return True

    def try_acquire(self, txn_id: Hashable, obj_id: Hashable, mode: LockMode) -> bool:
        """Non-blocking acquire; True when granted immediately.

        FIFO fairness: a request does not overtake an existing queue
        (unless it is a re-acquire/upgrade by a current holder).
        """
        entry = self._entry(obj_id)
        held = entry.holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True  # already sufficient
            # Upgrade S -> X.
            if self._grantable(entry, txn_id, mode):
                entry.holders[txn_id] = LockMode.EXCLUSIVE
                self.obs.lock_upgrade(self.name, txn=txn_id, obj=obj_id)
                return True
            return False
        if entry.queue:
            return False
        if self._grantable(entry, txn_id, mode):
            entry.holders[txn_id] = mode
            if self.obs.enabled:
                self.obs.lock_grant(self.name, txn=txn_id, obj=obj_id, mode=mode)
            return True
        return False

    def request(
        self,
        txn_id: Hashable,
        obj_id: Hashable,
        mode: LockMode = LockMode.EXCLUSIVE,
        timeout: Optional[float] = None,
    ) -> Optional[Event]:
        """Acquire without waiting: ``None`` when granted at once, else
        the grant event to wait on.  It succeeds once the lock is held,
        or with :data:`~repro.sim.TIMED_OUT` when ``timeout`` passes
        first, and then the caller must :meth:`withdraw` the request."""
        if self.try_acquire(txn_id, obj_id, mode):
            return None
        waiter = _Waiter(self.sim, txn_id, mode)
        self._entry(obj_id).queue.append(waiter)
        if self.obs.enabled:
            self.obs.lock_wait(self.name, txn=txn_id, obj=obj_id, mode=mode)
        if timeout is not None:
            self.sim.expire(waiter, timeout)
        return waiter

    def withdraw(self, grant: Event, obj_id: Hashable) -> LockTimeout:
        """Take a timed-out request off ``obj_id``'s queue (the table's
        entry: the one it joined may have been dropped and re-created
        since), give the others a chance; the :class:`LockTimeout`."""
        entry = self._table.get(obj_id)
        if entry is not None:
            try:
                entry.queue.remove(grant)
            except ValueError:  # pragma: no cover - granted in same instant
                pass
            self._dispatch(obj_id, entry)
        self.obs.lock_timeout(self.name, txn=grant.txn_id, obj=obj_id)
        return LockTimeout(grant.txn_id, obj_id)

    def acquire(
        self,
        txn_id: Hashable,
        obj_id: Hashable,
        mode: LockMode = LockMode.EXCLUSIVE,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Generator: block until granted; :class:`LockTimeout` on expiry."""
        grant = self.request(txn_id, obj_id, mode, timeout)
        if grant is not None and (yield grant) is TIMED_OUT:
            raise self.withdraw(grant, obj_id)

    # -- release ----------------------------------------------------------------------

    def release(self, txn_id: Hashable, obj_id: Hashable) -> None:
        entry = self._table.get(obj_id)
        if entry is None or txn_id not in entry.holders:
            raise KeyError(f"txn {txn_id} does not hold a lock on {obj_id!r}")
        del entry.holders[txn_id]
        if self.obs.enabled:
            self.obs.lock_release(self.name, txn=txn_id, obj=obj_id)
        self._dispatch(obj_id, entry)

    def release_all(self, txn_id: Hashable) -> int:
        """Release every lock ``txn_id`` holds; returns how many."""
        released = 0
        for obj_id, entry in list(self._table.items()):
            if txn_id in entry.holders:
                del entry.holders[txn_id]
                released += 1
                if self.obs.enabled:
                    self.obs.lock_release(self.name, txn=txn_id, obj=obj_id)
                self._dispatch(obj_id, entry)
            # Also withdraw any queued request by this transaction.
            if entry.queue:
                for waiter in [w for w in entry.queue if w.txn_id == txn_id]:
                    entry.queue.remove(waiter)
                    self._dispatch(obj_id, entry)
        return released

    def _dispatch(self, obj_id: Hashable, entry: _LockEntry) -> None:
        """Grant ``obj_id``'s queue head(s) what the holders now allow;
        ``entry`` is the table's entry for it, which the caller holds."""
        while entry.queue:
            waiter = entry.queue[0]
            if waiter._state != PENDING:
                entry.queue.popleft()
                continue
            if not self._grantable(entry, waiter.txn_id, waiter.mode):
                break
            entry.queue.popleft()
            held = entry.holders.get(waiter.txn_id)
            if held is LockMode.SHARED and waiter.mode is LockMode.EXCLUSIVE:
                entry.holders[waiter.txn_id] = LockMode.EXCLUSIVE
            elif held is None:
                entry.holders[waiter.txn_id] = waiter.mode
            if self.obs.enabled:
                self.obs.lock_grant(self.name, txn=waiter.txn_id, obj=obj_id, mode=waiter.mode)
            waiter.succeed()
            if waiter.mode is LockMode.EXCLUSIVE:
                break
        if not entry.holders and not entry.queue:
            del self._table[obj_id]

    # -- wait-for edges (deadlock detection support) --------------------------------------

    def wait_edges(self) -> list[tuple[Hashable, Hashable]]:
        """(waiter_txn, holder_txn) edges for the wait-for graph."""
        edges = []
        for entry in self._table.values():
            for waiter in entry.queue:
                for holder in entry.holders:
                    if holder != waiter.txn_id:
                        edges.append((waiter.txn_id, holder))
        return edges
