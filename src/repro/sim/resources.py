"""Contended resources: counted resources, stores and message queues.

These model the serially-shared hardware in the simulated cluster:
disks (FIFO service), CPUs, and mailbox-style message queues between
processes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... use the resource ...
        # released on exit
    """

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.sim, name=resource._request_name)
        self.resource = resource
        self.priority = priority
        self._order = resource._next_order()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with FIFO (or priority) granting.

    ``capacity`` slots; ``request()`` returns an event that triggers
    when a slot is granted; ``release(request)`` frees the slot.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Shared by every Request of this resource (repr label only);
        # saves an f-string per request on the disk/lock hot path.
        self._request_name = f"request:{name}"
        self._order_counter = 0
        self._waiting: list[Request] = []
        self._granted: set[Request] = set()

    def _next_order(self) -> int:
        self._order_counter += 1
        return self._order_counter

    # -- introspection ---------------------------------------------------------

    @property
    def in_use(self) -> int:
        return len(self._granted)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    # -- operations --------------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        self._waiting.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        if request in self._granted:
            self._granted.remove(request)
            self._dispatch()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        if request in self._waiting:
            self._waiting.remove(request)
            self._dispatch()

    def _sort_key(self, request: Request) -> tuple:
        return (request._order,)

    def _dispatch(self) -> None:
        waiting = self._waiting
        granted = self._granted
        while waiting and len(granted) < self.capacity:
            if len(waiting) > 1:
                waiting.sort(key=self._sort_key)
            req = waiting.pop(0)
            granted.add(req)
            req.succeed(req)


class PriorityResource(Resource):
    """A resource granting lower ``priority`` values first, FIFO within a
    priority level."""

    def _sort_key(self, request: Request) -> tuple:
        return (request.priority, request._order)


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


class Queue(Store):
    """Alias of :class:`Store` with message-queue naming, used as a
    process mailbox."""

    def send(self, item: Any) -> None:
        self.put(item)

    def receive(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        return self.get(predicate)
