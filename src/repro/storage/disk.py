"""FIFO block-device model.

A disk serves one request at a time; each request's service time is
``op_overhead + nbytes / bandwidth``.  Requests queue in FIFO order, so
a device shared by several writers (the 1PC shared-log architecture
attaches every MDS to one log manager) naturally serialises them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.config import StorageParams
from repro.sim import Resource, Simulator

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

        self.sim = sim
        self.params = params or StorageParams()
        self.name = name
        self.obs = obs if obs is not None else Observability(sim, enabled=False)
        self._device = Resource(sim, capacity=capacity, name=name)
        #: Cumulative bytes written / read (statistics).
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.writes = 0
        self.reads = 0

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for the device."""
        return self._device.queue_length

    @property
    def busy(self) -> bool:
        return self._device.in_use > 0

    def write(self, nbytes: float, actor: str = "?") -> Generator:
        """Generator: occupy the device for the write's service time."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        with self._device.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(self.params.write_latency(nbytes))
            self.bytes_written += nbytes
            self.writes += 1
            self.obs.annotate(
                "disk_write",
                actor,
                device=self.name,
                nbytes=nbytes,
                service=self.sim.now - start,
            )

    def stall(self, duration: float, actor: str = "fault") -> Generator:
        """Generator: hold one service slot for ``duration`` seconds.

        Models a device hiccup (firmware GC pause, path failover): the
        stalling request queues FIFO like any other, then keeps the slot
        busy without transferring data, so every later request — WAL
        flushes, remote log reads — waits the stall out behind it.
        """
        if duration <= 0:
            raise ValueError(f"non-positive stall duration {duration}")
        with self._device.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(duration)
            self.obs.annotate(
                "disk_stall",
                actor,
                device=self.name,
                duration=duration,
                granted=start,
            )

    def read(self, nbytes: float, actor: str = "?") -> Generator:
        """Generator: occupy the device for the read's service time."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        with self._device.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(self.params.read_latency(nbytes))
            self.bytes_read += nbytes
            self.reads += 1
            self.obs.annotate(
                "disk_read",
                actor,
                device=self.name,
                nbytes=nbytes,
                service=self.sim.now - start,
            )
