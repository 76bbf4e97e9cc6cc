"""Fencing (§III-A).

The 1PC recovery protocol must never read a worker's log while the
worker could still be writing it (the split-brain hazard the paper
describes for network partitions).  Before reading someone else's log,
the coordinator executes a fencing action.  Recovery needs only the
post-condition, which :class:`FencingController` enforces: once
``is_fenced(node)`` is true, every write by ``node`` raises
:class:`FencedError`.  The one driver is :class:`StonithDriver`, node
fencing ("Shoot The Other Node In The Head"): it power-cycles the
suspect, which is then down (and will reboot) and certainly not
writing.  Switch-level fencing or a SCSI-3 persistent reservation
would reach the same post-condition without the reboot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

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
