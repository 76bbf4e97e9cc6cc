"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
yielding them; the kernel resumes the process when the event triggers.
Events can *succeed* (carrying a value) or *fail* (carrying an
exception, which is thrown into every waiting process).

Hot-path notes
--------------
Every simulated message hop, WAL flush and process resumption creates
and processes events, so this module is the innermost allocation site
of the whole reproduction.  Three structural choices keep it lean
without changing any observable behaviour:

* **Int-coded lifecycle states.**  ``_state`` is one of the module
  ints ``PENDING``/``TRIGGERED``/``PROCESSED`` (0/1/2); comparisons in
  the kernel loop are pointer-equality on small ints instead of string
  compares.  ``repr`` maps them back to names.
* **Lazy callback lists.**  Most events carry zero or one callback;
  the list in ``_callbacks`` is only allocated when the first callback
  is added, and processing an event drops the reference instead of
  allocating a fresh empty list.  The public ``callbacks`` property
  preserves the historical ``event.callbacks.append(...)`` API.
* **Lazy timeout names.**  The old f-string default name per Timeout
  (pure ``repr`` fodder) is now built on demand.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.sim.errors import EventRefusedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

# Event lifecycle states (int-coded; see module docstring).
PENDING = 0
TRIGGERED = 1  # scheduled, value known, callbacks not yet run
PROCESSED = 2  # callbacks have run

#: Names for ``repr`` and diagnostics, indexed by state.
STATE_NAMES = ("pending", "triggered", "processed")


class _TimedOut:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMED_OUT"


#: Value of an event whose deadline (``Simulator.expire``) passed
#: before anything else triggered it.  Compare with ``is``.
TIMED_OUT = _TimedOut()


class Event:
    """A one-shot occurrence processes can wait on.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Optional human-readable label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "_callbacks", "_state", "_ok", "_value", "defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: "list[Callable[[Event], None]] | None" = None
        self._state = PENDING
        self._ok = True
        self._value: Any = None
        # A failed event whose failure nobody observed would normally be
        # an error; ``defused`` marks the failure as handled.
        self.defused = False

    # -- state inspection -------------------------------------------------

    @property
    def callbacks(self) -> "list[Callable[[Event], None]]":
        """Mutable callback list (allocated on first access).

        Appending is only meaningful before the event is processed:
        exactly as before the hot-path rework, callbacks added after
        processing are never invoked.
        """
        cbs = self._callbacks
        if cbs is None:
            cbs = self._callbacks = []
        return cbs

    @property
    def triggered(self) -> bool:
        """True once the event's outcome (value or failure) is decided."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded.  Only meaningful once triggered."""
        if self._state == PENDING:
            raise EventRefusedError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._state == PENDING:
            raise EventRefusedError(f"{self!r} has no value yet")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule the event to succeed with ``value`` after ``delay``."""
        if self._state != PENDING:
            raise EventRefusedError(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # The push spelled out, as in ``Simulator.after``: no frame
        # between the code that triggers and the heap.
        sim = self.sim
        sim._sequence += 1
        heappush(sim._heap, (sim.now + delay, 1, sim._sequence, None, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule the event to fail with ``exception`` after ``delay``."""
        if self._state != PENDING:
            raise EventRefusedError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        sim = self.sim
        sim._sequence += 1
        heappush(sim._heap, (sim.now + delay, 1, sim._sequence, None, self))
        return self

    def trigger_like(self, other: "Event") -> None:
        """Trigger with the same outcome as an already-triggered event."""
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    # -- kernel interface ---------------------------------------------------

    def _run_callbacks(self) -> None:
        # The kernel's run() loop inlines this body; keep the two in
        # sync (see Simulator.run).
        self._state = PROCESSED
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        return f"<{label} state={STATE_NAMES[self._state]}>"

    # -- composition ---------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Inlined Event.__init__ plus immediate triggering: Timeout is
        # the dominant event of every workload, so it pays to skip the
        # super() call and the old per-instance f-string name.
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.sim = sim
        self.name = ""
        self._callbacks = None
        self.defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._sequence += 1
        heappush(sim._heap, (sim.now + delay, 1, sim._sequence, None, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<timeout({self.delay}) state={STATE_NAMES[self._state]}>"


class Condition(Event):
    """Waits for a combination of events.

    ``evaluate`` receives the list of constituent events and the number
    that have triggered so far and returns True when the condition is
    satisfied.  The condition value is a dict mapping each triggered
    constituent event to its value (in trigger order).
    """

    __slots__ = ("events", "_evaluate", "_count")

    def __init__(
        self,
        sim: "Simulator",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
        name: str = "",
    ):
        super().__init__(sim, name or evaluate.__name__)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")

        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event._state == PROCESSED:
                self._on_trigger(event)
            else:
                cbs = event._callbacks
                if cbs is None:
                    event._callbacks = [self._on_trigger]
                else:
                    cbs.append(self._on_trigger)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._state != PENDING and e._ok}

    def _on_trigger(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self.events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return count == len(events)

    @staticmethod
    def any_event(events: list[Event], count: int) -> bool:
        return count >= 1


class AllOf(Condition):
    """Triggers once every constituent event has triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, Condition.all_events, events, name="AllOf")


class AnyOf(Condition):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, Condition.any_event, events, name="AnyOf")
