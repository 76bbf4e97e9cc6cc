"""Fencing mechanisms (§III-A).

The 1PC recovery protocol must never read a worker's log while the
worker could still be writing it (the split-brain hazard the paper
describes for network partitions).  Before reading someone else's log,
the coordinator executes a fencing action.  Three drivers are modelled:

* :class:`StonithDriver` -- node fencing: power-cycle the suspect node
  ("Shoot The Other Node In The Head").  After fencing, the node is
  down (and will reboot); it certainly is not writing.
* :class:`ResourceFencingDriver` -- instruct the SAN switch to reject
  all requests from the suspect node.  The node may keep running but
  its writes no longer reach the shared device.
* :class:`PersistentReservationDriver` -- SCSI-3 persistent
  reservation: the device itself maintains the set of initiators
  allowed to write.

All three converge on the same post-condition enforced by
:class:`FencingController`: once ``is_fenced(node)`` is true, every
write by ``node`` raises :class:`FencedError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Protocol

from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class FencedError(Exception):
    """A fenced node attempted to access the shared storage."""


class FencingController:
    """Authoritative record of which nodes are cut off from storage."""

    def __init__(self, obs: "Observability | None" = None):
        #: Live and never replaced: every ``WriteAheadLog`` keeps a
        #: reference and tests ``owner in`` it on each write.  Only
        #: :meth:`fence` and :meth:`unfence` change it.
        self.fenced: set[str] = set()
        self.obs = obs

    def is_fenced(self, node: str) -> bool:
        return node in self.fenced

    def fence(self, node: str, by: str = "?") -> None:
        self.fenced.add(node)
        if self.obs is not None:
            self.obs.fence(by, target=node)

    def unfence(self, node: str, by: str = "?") -> None:
        self.fenced.discard(node)
        if self.obs is not None:
            self.obs.unfence(by, target=node)

    @property
    def fenced_nodes(self) -> frozenset[str]:
        return frozenset(self.fenced)


class FencingDriver(Protocol):
    """A mechanism that makes ``is_fenced(target)`` become true."""

    def fence(self, requester: str, target: str) -> Generator:  # pragma: no cover
        """Generator: perform the fencing action; resumes when the
        target is guaranteed unable to write."""
        ...


class StonithDriver:
    """Node fencing: power-cycle the target.

    ``power_off`` is supplied by the cluster layer; it must crash the
    target node immediately (losing its volatile state).  After the
    fencing delay, the target is both powered off and barred from the
    device until explicitly unfenced (its reboot path unfences it once
    recovery-safe).
    """

    def __init__(
        self,
        sim: Simulator,
        controller: FencingController,
        power_off: Callable[[str], None],
        delay: float = 50e-3,
    ):
        self.sim = sim
        self.controller = controller
        self.power_off = power_off
        self.delay = delay

    def fence(self, requester: str, target: str) -> Generator:
        yield self.sim.timeout(self.delay)
        self.power_off(target)
        self.controller.fence(target, by=requester)
        return None


class ResourceFencingDriver:
    """Switch-level fencing: the target keeps running but its I/O is
    rejected at the fabric."""

    def __init__(self, sim: Simulator, controller: FencingController, delay: float = 50e-3):
        self.sim = sim
        self.controller = controller
        self.delay = delay

    def fence(self, requester: str, target: str) -> Generator:
        yield self.sim.timeout(self.delay)
        self.controller.fence(target, by=requester)
        return None


class PersistentReservationDriver:
    """SCSI-3 persistent reservation: same observable effect as
    resource fencing, but executed by the device itself (no switch
    round-trip, typically faster)."""

    def __init__(self, sim: Simulator, controller: FencingController, delay: float = 5e-3):
        self.sim = sim
        self.controller = controller
        self.delay = delay

    def fence(self, requester: str, target: str) -> Generator:
        yield self.sim.timeout(self.delay)
        self.controller.fence(target, by=requester)
        return None
