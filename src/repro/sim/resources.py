"""The mailbox store: every endpoint mailbox and session inbox.

(Disks queue in :class:`repro.storage.disk.Disk`, a callback server.)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Store:
    """An unbounded buffer of items with blocking ``get``.

    ``put`` is immediate (the buffer is unbounded); ``get`` returns an
    event that triggers with the oldest item, optionally filtered.
    """

    def __init__(self, sim: "Simulator", name: str = "store"):
        self.sim = sim
        self.name = name
        # Shared by every get() event of this store (repr label only).
        self._get_name = f"get:{name}"
        self.items: Deque[Any] = deque()
        self._getters: Deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        self.items.append(item)
        self._dispatch()

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        event = Event(self.sim, name=self._get_name)
        self._getters.append((event, predicate))
        self._dispatch()
        return event

    def cancel_getters(self) -> None:
        """Drop every pending getter.

        Used on crash: the processes that registered them are being
        killed, and a stale getter would otherwise swallow the first
        item put after a restart.
        """
        self._getters.clear()

    def _dispatch(self) -> None:
        getters = self._getters
        items = self.items
        # Fast path: a live, unfiltered getter at the head of the queue
        # takes the oldest item — the overwhelmingly common mailbox
        # case.  Identical to one iteration of the general scan below
        # with gi == 0 and ii == 0.
        while getters and items:
            event, predicate = getters[0]
            if predicate is not None or event._state != PENDING:
                break
            getters.popleft()
            event.succeed(items.popleft())
        made_progress = True
        while made_progress and self._getters and self.items:
            made_progress = False
            for gi, (event, predicate) in enumerate(self._getters):
                if event._state != PENDING:  # cancelled externally
                    del self._getters[gi]
                    made_progress = True
                    break
                for ii, item in enumerate(self.items):
                    if predicate is None or predicate(item):
                        del self.items[ii]
                        del self._getters[gi]
                        event.succeed(item)
                        made_progress = True
                        break
                if made_progress:
                    break

