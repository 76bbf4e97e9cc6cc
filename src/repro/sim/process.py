"""Generator-coroutine processes.

A :class:`Process` drives a generator: every value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until
the event triggers and is resumed with the event's value (or has the
event's exception thrown into it on failure).

A process is itself an event that triggers when the generator returns
(succeeding with its return value) or raises (failing with the
exception), so processes can wait on each other.

Hot-path notes
--------------
Kick-starts and relays of already-processed targets are zero-delay
timers (:meth:`Simulator.after`) whose value is the outcome
``_resume`` reads: the processed target itself for a relay, one shared
constant for a kick-start.  No event is allocated for either, because
``_resume`` never retains what it is called with — it only reads
``_ok``/``_value`` and possibly marks a failure defused.  The rare
wakeups that carry a failure (interrupts, relays of failed targets)
are plain events; either way the heap sequence number is taken at the
same program point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class _Started:
    """The outcome a kick-start resumes with: ``send(None)``."""

    __slots__ = ()
    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """A running simulation actor wrapping a generator."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        try:
            generator.send, generator.throw
        except AttributeError:
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            ) from None
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick-start: resume at the current instant, so process bodies
        # begin executing in creation order.
        sim.after(0.0, self._resume, _STARTED)

    # -- state ---------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on, if any."""
        return self._waiting_on

    # -- control --------------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is detached from whatever event it was waiting on
        (the event itself is unaffected and may still trigger later).
        Interrupting a dead process is a no-op so that crash injection
        does not have to care about races with normal completion.
        """
        if self._state != PENDING:
            return
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the waited-on event.
        if self._waiting_on is not None:
            cbs = self._waiting_on._callbacks
            if cbs is not None and self._resume in cbs:
                cbs.remove(self._resume)
        self._waiting_on = None
        self._throw(Interrupt(cause))

    def kill(self, cause: Any = None) -> None:
        """Terminate the process immediately without running it further.

        Unlike :meth:`interrupt`, the generator gets no chance to handle
        the event — this models a hard crash where volatile execution
        state is simply lost.  The process event *succeeds* with
        ``None`` so that waiters are not poisoned; crash semantics are
        the responsibility of higher layers.
        """
        if self._state != PENDING:
            return
        if self._waiting_on is not None:
            cbs = self._waiting_on._callbacks
            if cbs is not None and self._resume in cbs:
                cbs.remove(self._resume)
        self._waiting_on = None
        self._generator.close()
        self.succeed(None)

    def _throw(self, exc: BaseException) -> None:
        """Resume at the current instant with ``exc`` thrown in (always
        considered observed, hence defused)."""
        event = Event(self.sim)
        event._callbacks = [self._resume]
        event.defused = True
        event.fail(exc)

    # -- kernel callback --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._state != PENDING:
            # Already finished (e.g. kill() raced with a pending
            # kick-start or relay event): ignore stale wakeups.
            if not event._ok:
                event.defused = True
            return
        sim = self.sim
        sim._active_process = self
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        try:
            state = target._state
            foreign = target.sim is not sim
        except AttributeError:  # not an event
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
            try:
                self._generator.throw(exc)
            except BaseException:
                pass
            self.fail(exc)
            return
        if foreign:
            self.fail(SimulationError("yielded an event belonging to another simulator"))
            return

        self._waiting_on = target
        if state == PROCESSED:
            # Already-processed events resume the process immediately
            # (still via the scheduler, to preserve determinism).
            if target._ok:
                sim.after(0.0, self._resume, target)
            else:
                self._throw(target._value)
        else:
            # ``target.callbacks.append`` without the property's frame.
            callbacks = target._callbacks
            if callbacks is None:
                target._callbacks = [self._resume]
            else:
                callbacks.append(self._resume)
