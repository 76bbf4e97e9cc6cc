"""The simulator event loop.

The kernel is a classic calendar-queue DES core: a binary heap of
``(time, priority, sequence, callback, arg)`` entries.  ``sequence`` is
a monotonically increasing integer that makes scheduling fully
deterministic: two entries scheduled for the same instant always fire in
the order they were scheduled, and no comparison reaches past it.  A
triggered event is the entry ``(due, 1, seq, None, event)``; a timer
(:meth:`Simulator.after`, ``at``) is ``(due, 1, seq, callback, value)``
and nothing else — no event is allocated for it.

Hot-path notes
--------------
``run()`` is the innermost loop of every experiment, so it is written
as a tight inline loop rather than composed from ``peek()``/``step()``:
heap and ``heappop`` are bound to locals, the callback dispatch of
:meth:`~repro.sim.events.Event._run_callbacks` is inlined (no event
subclass overrides it), and the processed-event counter is accumulated
locally and flushed once.  ``step()`` stays the one-event-at-a-time
public API with identical semantics.  A driver that waits for a *count*
runs too: it gives ``run(until=<time>)`` its budget and calls
:meth:`Simulator.stop` in the event that completes the count.  The
bounded loop compares due times against ``_horizon``, which ``stop()``
pulls in (an attribute read per event); the unbounded loop checks nothing.

*Protocol sessions run on the step interpreter
(``repro.protocols.base``); processes drive load and harnesses; a
device or queue that only serves is a callback server* built from
:meth:`Simulator.after`
(network delivery, ``Endpoint.serve``, disk channels, the WAL pump),
and :meth:`Simulator.expire` is the one deadline, one such timer: a timed
wait is the awaited event plus one timer entry, not an
``AnyOf(event, Timeout)`` pair with a withdrawal at every call site.

Everything above is *mechanical*: event order, virtual timestamps and
process semantics are byte-identical to the straightforward kernel
(pinned by ``tests/sim/test_differential_kernel.py`` against the
frozen reference implementation, and by the golden traces).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import PENDING, PROCESSED, TIMED_OUT, Event, Timeout
from repro.sim.process import Process

_INF = float("inf")


def _expire(event: Event) -> None:
    if event._state == PENDING:
        event.succeed(TIMED_OUT)


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def producer(sim):
            yield Timeout(sim, 1.0)
            return "done"

        proc = sim.process(producer(sim))
        sim.run()
        assert sim.now == 1.0
    """

    def __init__(self, start_time: float = 0.0):
        #: Current virtual time in seconds.  A plain attribute, read
        #: everywhere; only this module assigns it.
        self.now = float(start_time)
        #: ``(time, priority, sequence, callback, arg)``; an event's entry
        #: has no callback and the event as ``arg``.
        self._heap: list[tuple[float, int, int, Optional[Callable[[Any], None]], Any]] = []
        self._sequence = 0
        #: Time bound of the ``run(until=<time>)`` in progress, else ``inf``.
        self._horizon = _INF
        #: Number of events processed so far (exposed for statistics).
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------------

    def after(self, delay: float, callback: Callable[[Any], None], value: Any = None) -> None:
        """Call ``callback(value)`` ``delay`` seconds from now, once.

        One heap entry and nothing else: no process, no event.  Entries
        due at the same instant fire in scheduling order, whether they
        are timers or triggered events.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._sequence += 1
        heappush(self._heap, (self.now + delay, 1, self._sequence, callback, value))

    def at(self, time: float, callback: Callable[[Any], None], value: Any = None) -> None:
        """:meth:`after` with an absolute due time, taken bit for bit:
        ``now + (time - now)`` is not always ``time``, and a walk over a
        grid of instants has to land on each one."""
        if time < self.now:
            raise ValueError(f"at({time}) is in the past (now={self.now})")
        self._sequence += 1
        heappush(self._heap, (time, 1, self._sequence, callback, value))

    def expire(self, event: Event, delay: float) -> Event:
        """Arm a deadline on ``event`` and return it:
        ``msg = yield sim.expire(inbox.get(), 0.5)``.

        Still pending after ``delay``, ``event`` succeeds with
        :data:`~repro.sim.events.TIMED_OUT`; once triggered, the
        deadline is a no-op.  A timed-out event *is* triggered, so the
        queue that handed it out (``Store`` getter, lock waiter) sees it
        as withdrawn — even if the waiter was killed in the meantime.
        The deadline is the timer :meth:`after` would push, pushed here.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._sequence += 1
        heappush(self._heap, (self.now + delay, 1, self._sequence, _expire, event))
        return event

    # -- factories -----------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Wrap ``generator`` as a process and start it immediately."""
        return Process(self, generator, name=name)

    # -- execution -----------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one event."""
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty schedule")
        time, _priority, _seq, timer, event = heappop(heap)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        self.events_processed += 1
        if timer is not None:
            timer(event)  # slot 4 of a timer entry is its value
            return
        event._run_callbacks()
        if not event._ok and not event.defused:
            # A failure nobody waited on: surface it instead of silently
            # swallowing a broken process.
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the schedule drains, ``until`` time passes, or an
        ``until`` event triggers.

        Returns the value of the ``until`` event when one is given; a
        time-bounded run ends with the clock at ``until`` unless stopped.
        """
        stop_event: Optional[Event] = None
        deadline = _INF
        if isinstance(until, Event):
            stop_event = until
            if stop_event._state == PROCESSED:
                return stop_event.value
            stop_event.callbacks.append(self._stop_on_event)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError(f"until={deadline} is in the past (now={self.now})")

        # The loop below is step() inlined: locals for the heap and
        # heappop, Event._run_callbacks unrolled (no subclass overrides
        # it), counter flushed once in the finally.  No push accepts a
        # due time in the past (delay >= 0, at() >= now), so the
        # defensive check step() keeps is skipped here.
        heap = self._heap
        processed = 0
        try:
            if deadline == _INF:
                while heap:
                    entry = heappop(heap)
                    self.now = entry[0]
                    processed += 1
                    timer = entry[3]
                    if timer is not None:
                        timer(entry[4])
                        continue
                    event = entry[4]
                    event._state = PROCESSED
                    callbacks = event._callbacks
                    if callbacks is not None:
                        event._callbacks = None
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
            else:
                self._horizon = deadline
                while heap and heap[0][0] <= self._horizon:
                    entry = heappop(heap)
                    self.now = entry[0]
                    processed += 1
                    timer = entry[3]
                    if timer is not None:
                        timer(entry[4])
                        continue
                    event = entry[4]
                    event._state = PROCESSED
                    callbacks = event._callbacks
                    if callbacks is not None:
                        event._callbacks = None
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed
            horizon, self._horizon = self._horizon, _INF
            if stop_event is not None:
                cbs = stop_event._callbacks
                if cbs is not None and self._stop_on_event in cbs:
                    cbs.remove(self._stop_on_event)

        if stop_event is not None:
            if stop_event._state != PENDING:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            raise SimulationError(
                f"schedule drained at t={self.now} before {stop_event!r} triggered"
            )
        if deadline != _INF and horizon == deadline:  # not stopped
            self.now = deadline
        return None

    def stop(self) -> None:
        """End the ``run(until=<time>)`` in progress after the event
        being processed: the clock stays on that event, later entries
        (same-instant ones included) stay scheduled, ``events_processed``
        is what stepping up to here would count.  Time-bounded runs
        only: a driver that waits for a count always has a budget.
        """
        if self._horizon == _INF:
            raise SimulationError("stop() outside a time-bounded run")
        self._horizon = -_INF  # before every due time

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        event.defused = True
        raise event._value

    # -- convenience ----------------------------------------------------------

    def call_at(self, time: float, func: Callable[[], None]) -> None:
        """Invoke ``func()`` at absolute virtual time ``time``."""
        self.at(time, lambda _value: func())
