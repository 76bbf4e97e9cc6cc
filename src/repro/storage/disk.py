"""FIFO block-device model.

A disk has ``capacity`` service channels (one, unless it models a SAN
array); a request holds a channel for ``op_overhead + nbytes /
bandwidth`` seconds.  Requests queue in FIFO order, so a device shared
by several writers (the 1PC shared-log architecture attaches every MDS
to one log manager) naturally serialises them.

The device only *serves*, so it is a callback server, not a process: a
freed channel goes to the oldest waiter by a plain call, and a log
write (:meth:`Disk.submit_write`) costs one service timer.  ``write``,
``read`` and ``stall`` are generator spellings for callers that are
processes, waiting in the same FIFO; a process killed inside one gives
its channel (or queue place) back at kill time and leaves no record.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.config import StorageParams
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class Disk:
    """A shared, FIFO-scheduled block device."""

    def __init__(
        self,
        sim: Simulator,
        params: StorageParams | None = None,
        name: str = "disk",
        capacity: int = 1,
        obs: "Observability | None" = None,
    ):
        from repro.obs.hub import Observability

        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.params = params or StorageParams()
        self.name = name
        self.obs = obs if obs is not None else Observability(sim, "off")
        self.capacity = capacity
        self._in_service = 0
        #: Grant callbacks of the requests waiting for a channel, FIFO.
        self._waiting: deque[Callable[[], Any]] = deque()
        #: Cumulative bytes written / read (statistics).
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.writes = 0
        self.reads = 0

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the device."""
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        return self._in_service > 0

    def _acquire(self, grant: Callable[[], Any]) -> None:
        """Call ``grant()`` once a channel is free: now, or in FIFO turn."""
        if self._in_service < self.capacity:
            self._in_service += 1
            grant()
        else:
            self._waiting.append(grant)

    def _release(self) -> None:
        """Free a channel; the oldest waiter takes it over at once."""
        if self._waiting:
            self._waiting.popleft()()
        else:
            self._in_service -= 1

    def _occupy(self, duration: float) -> Generator:
        """Generator: queue for a channel, hold it ``duration`` seconds,
        return the grant time.  The channel is released when the hold
        ends *or the calling process is killed*."""
        granted = Event(self.sim, name="disk-grant")
        grant = granted.succeed
        self._acquire(grant)
        try:
            yield granted
            start = self.sim.now
            yield self.sim.timeout(duration)
            return start
        finally:
            if granted.triggered:
                self._release()
            else:
                self._waiting.remove(grant)

    def submit_write(
        self, nbytes: float, actor: str, done: Callable[..., None], *args: Any
    ) -> None:
        """Queue a write; ``done(*args)`` runs once it is on the device.
        The callback spelling of :meth:`write`: same FIFO, service time
        and ``disk_write`` record, for one timer and no process."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        if self._in_service < self.capacity:
            self._in_service += 1
            self.sim.after(
                self.params.write_latency(nbytes),
                self._write_served,
                (nbytes, actor, self.sim.now, done, args),
            )
        else:
            # FIFO turn: the same timer, armed the instant a channel is handed over.
            self._waiting.append(
                lambda: self.sim.after(
                    self.params.write_latency(nbytes),
                    self._write_served,
                    (nbytes, actor, self.sim.now, done, args),
                )
            )

    def _write_served(self, job: tuple[float, str, float, Callable[..., None], tuple]) -> None:
        nbytes, actor, start, done, args = job
        self._wrote(nbytes, actor, start)
        if self._waiting:  # the oldest waiter takes the channel over
            self._waiting.popleft()()
        else:
            self._in_service -= 1
        done(*args)

    def _wrote(self, nbytes: float, actor: str, start: float) -> None:
        self.bytes_written += nbytes
        self.writes += 1
        if self.obs.enabled:
            self.obs.annotate(
                "disk_write", actor, device=self.name, nbytes=nbytes, service=self.sim.now - start
            )

    def write(self, nbytes: float, actor: str = "?") -> Generator:
        """Generator: occupy the device for the write's service time."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        start = yield from self._occupy(self.params.write_latency(nbytes))
        self._wrote(nbytes, actor, start)

    def stall(self, duration: float, actor: str = "fault") -> Generator:
        """Generator: hold one service slot for ``duration`` seconds.

        Models a device hiccup (firmware GC pause, path failover): the
        stalling request queues FIFO like any other, then keeps the slot
        busy without transferring data, so every later request — WAL
        flushes, remote log reads — waits the stall out behind it.
        """
        if duration <= 0:
            raise ValueError(f"non-positive stall duration {duration}")
        start = yield from self._occupy(duration)
        self.obs.annotate(
            "disk_stall", actor, device=self.name, duration=duration, granted=start
        )

    def read(self, nbytes: float, actor: str = "?") -> Generator:
        """Generator: occupy the device for the read's service time."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        start = yield from self._occupy(self.params.read_latency(nbytes))
        self.bytes_read += nbytes
        self.reads += 1
        self.obs.annotate(
            "disk_read", actor, device=self.name, nbytes=nbytes, service=self.sim.now - start
        )
