"""A frozen, minimal reference DES kernel for differential testing.

This module is a self-contained snapshot of the simulator core *before*
the hot-path overhaul: string-coded event states, eager callback lists,
a ``heapq`` loop that calls ``peek()``/``step()`` per iteration, one
fresh ``Event`` object per process resumption.  It is deliberately
unoptimized and must stay that way — its only job is to define the
semantics (pop order, timestamps, process return values) that the
optimized ``repro.sim`` kernel is required to reproduce exactly.

The differential harness in ``test_differential_kernel.py`` runs the
same seeded random program against both kernels and byte-compares the
``(time, priority, sequence)`` pop log and every process outcome.

Do not "improve" this file.  If the optimized kernel intentionally
changes semantics, that is a protocol-visible event ordering change and
needs golden traces regenerated — not a reference edit.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

PRIORITY_NORMAL = 1
PRIORITY_URGENT = 0

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class RefSimulationError(Exception):
    pass


class RefStopSimulation(Exception):
    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class RefEventRefusedError(RefSimulationError):
    pass


class RefEvent:
    """One-shot occurrence; the pre-overhaul Event, verbatim semantics."""

    def __init__(self, sim: "RefSimulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[RefEvent], None]] = []
        self._state = PENDING
        self._ok = True
        self._value: Any = None
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise RefEventRefusedError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise RefEventRefusedError(f"{self!r} has no value yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "RefEvent":
        if self.triggered:
            raise RefEventRefusedError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "RefEvent":
        if self.triggered:
            raise RefEventRefusedError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def trigger_like(self, other: "RefEvent") -> None:
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    def _run_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class RefTimeout(RefEvent):
    def __init__(self, sim: "RefSimulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim, name or f"timeout({delay})")
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._schedule(self, delay)


class RefCondition(RefEvent):
    def __init__(
        self,
        sim: "RefSimulator",
        evaluate: Callable[[list[RefEvent], int], bool],
        events: Iterable[RefEvent],
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
                event.callbacks.append(self._on_trigger)

    def _collect(self) -> dict[RefEvent, Any]:
        return {e: e._value for e in self.events if e.triggered and e._ok}

    def _on_trigger(self, event: RefEvent) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self.events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def any_event(events: list[RefEvent], count: int) -> bool:
        return count >= 1


class RefAnyOf(RefCondition):
    def __init__(self, sim: "RefSimulator", events: Iterable[RefEvent]):
        super().__init__(sim, RefCondition.any_event, events, name="AnyOf")


class RefProcess(RefEvent):
    def __init__(self, sim: "RefSimulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[RefEvent] = None
        init = RefEvent(sim, name=f"init:{self.name}")
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    @property
    def target(self) -> Optional[RefEvent]:
        return self._waiting_on

    def _resume(self, event: RefEvent) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self.sim._active_process = self
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
            self.sim._active_process = None

        if not isinstance(target, RefEvent):
            exc = RefSimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
            try:
                self._generator.throw(exc)
            except BaseException:
                pass
            self.fail(exc)
            return
        if target.sim is not self.sim:
            self.fail(RefSimulationError("yielded an event belonging to another simulator"))
            return

        self._waiting_on = target
        if target.processed:
            relay = RefEvent(self.sim, name=f"relay:{self.name}")
            relay.callbacks.append(self._resume)
            relay.trigger_like(target)
            if not target._ok:
                relay.defused = True
        else:
            target.callbacks.append(self._resume)


class RefSimulator:
    """The pre-overhaul event loop: ``peek()`` + ``step()`` per event.

    ``pop_log`` records every ``(time, priority, sequence)`` triple in
    pop order — the ground truth the optimized kernel must match.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, RefEvent]] = []
        self._sequence = 0
        self._active_process: Optional[RefProcess] = None
        self.events_processed = 0
        self.pop_log: list[tuple[float, int, int]] = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[RefProcess]:
        return self._active_process

    def _schedule(self, event: RefEvent, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._sequence, event))

    def event(self, name: str = "") -> RefEvent:
        return RefEvent(self, name)

    def timeout(self, delay: float, value: Any = None) -> RefTimeout:
        return RefTimeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> RefProcess:
        return RefProcess(self, generator, name=name)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        if not self._heap:
            raise RefSimulationError("step() on an empty schedule")
        time, priority, seq, event = heapq.heappop(self._heap)
        if time < self._now:
            raise RefSimulationError("event scheduled in the past")
        self.pop_log.append((time, priority, seq))
        self._now = time
        self.events_processed += 1
        event._run_callbacks()
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: "float | RefEvent | None" = None) -> Any:
        stop_event: Optional[RefEvent] = None
        deadline = float("inf")
        if isinstance(until, RefEvent):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.callbacks.append(self._stop_on_event)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")

        try:
            while self._heap and self.peek() <= deadline:
                self.step()
        except RefStopSimulation as stop:
            return stop.value
        finally:
            if stop_event is not None and self._stop_on_event in stop_event.callbacks:
                stop_event.callbacks.remove(self._stop_on_event)

        if stop_event is not None:
            if stop_event.triggered:
                if not stop_event.ok:
                    raise stop_event.value
                return stop_event.value
            raise RefSimulationError(
                f"schedule drained at t={self._now} before {stop_event!r} triggered"
            )
        if deadline != float("inf"):
            self._now = deadline
        return None

    @staticmethod
    def _stop_on_event(event: RefEvent) -> None:
        if event._ok:
            raise RefStopSimulation(event._value)
        event.defused = True
        raise event._value
