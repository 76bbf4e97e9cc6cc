"""Declarative fault actions and schedules.

A fault fires either at an absolute virtual time (``at=...``) or when a
trace predicate first becomes true (``when=...``, checked after every
simulation step by the plan's watcher process).  Trace-triggered faults
make crash-point tests readable::

    FaultPlan([
        CrashFault("mds2", when=lambda t: t.count("log_durable",
                                                  kind="PREPARED") > 0),
        ...
    ]).install(cluster)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster
    from repro.sim import TraceLog

TracePredicate = Callable[["TraceLog"], bool]

#: How often trace-triggered faults are polled (seconds, virtual).
POLL_INTERVAL = 50e-6


@dataclass
class Fault:
    """Base fault: a trigger plus an action."""

    #: Absolute virtual firing time; mutually exclusive with ``when``.
    at: Optional[float] = None
    #: Trace predicate; fires on the first poll where it returns True.
    when: Optional[TracePredicate] = None
    #: Set once the fault has fired.
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if (self.at is None) == (self.when is None):
            raise ValueError("exactly one of 'at' or 'when' must be given")

    def apply(self, cluster: "Cluster") -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - cosmetic
        trigger = f"at={self.at}" if self.at is not None else "on-trace"
        return f"{type(self).__name__}({trigger})"


@dataclass
class CrashFault(Fault):
    """Crash a server; optionally schedule its restart."""

    node: str = ""
    #: Seconds after the crash to restart; None = use the cluster's
    #: reboot delay; float("inf") = never restart.
    restart_after: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node:
            raise ValueError("CrashFault requires a node")

    def apply(self, cluster: "Cluster") -> None:
        cluster.crash_server(self.node)
        delay = (
            cluster.params.failure.reboot_delay
            if self.restart_after is None
            else self.restart_after
        )
        if delay != float("inf"):
            cluster.restart_server(self.node, after=delay)


@dataclass
class PartitionFault(Fault):
    """Split the network; optionally heal after ``heal_after`` seconds."""

    groups: Sequence[frozenset] = ()
    heal_after: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.groups:
            raise ValueError("PartitionFault requires at least one group")

    def apply(self, cluster: "Cluster") -> None:
        cluster.partition(*self.groups)
        if self.heal_after is not None:
            cluster.sim.call_at(
                cluster.sim.now + self.heal_after, cluster.heal_partition
            )


@dataclass
class LinkFault(Fault):
    """Fail one link; optionally restore it."""

    a: str = ""
    b: str = ""
    restore_after: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("LinkFault requires both endpoints")

    def apply(self, cluster: "Cluster") -> None:
        cluster.network.fail_link(self.a, self.b)
        if self.restore_after is not None:
            cluster.sim.call_at(
                cluster.sim.now + self.restore_after,
                lambda: cluster.network.restore_link(self.a, self.b),
            )


@dataclass
class DiskStallFault(Fault):
    """Stall a node's log device for ``duration`` seconds.

    Occupies one service slot of the disk serving ``node`` (the node's
    private log device, or the shared log manager when the cluster runs
    the shared-log architecture), so queued WAL flushes and remote log
    reads wait the stall out — the classic slow-disk hazard for the 1PC
    fence-then-read recovery path.
    """

    node: str = ""
    duration: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node:
            raise ValueError("DiskStallFault requires a node")
        if self.duration <= 0:
            raise ValueError(f"DiskStallFault requires a positive duration, got {self.duration}")

    def apply(self, cluster: "Cluster") -> None:
        disk = cluster.storage.disk_of(self.node)
        cluster.sim.process(
            disk.stall(self.duration, actor=f"stall:{self.node}"),
            name=f"disk-stall:{self.node}",
        )


@dataclass
class VoteRefusalFault(Fault):
    """Make a server refuse its next worker-side vote."""

    node: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node:
            raise ValueError("VoteRefusalFault requires a node")

    def apply(self, cluster: "Cluster") -> None:
        cluster.servers[self.node].fail_next_vote = True


class FaultPlan:
    """An ordered schedule of faults bound to a cluster.

    ``poll_interval`` sets how often trace-triggered faults are
    re-evaluated; ``watch_until`` (absolute virtual time) bounds the
    watcher — past it, still-untriggered faults are abandoned instead
    of polling to the end of the run.  Campaign schedules use both to
    keep runs with never-satisfied window triggers cheap.
    """

    def __init__(
        self,
        faults: Iterable[Fault],
        poll_interval: float = POLL_INTERVAL,
        watch_until: Optional[float] = None,
    ):
        self.faults = list(faults)
        self.poll_interval = poll_interval
        self.watch_until = watch_until
        self.installed = False

    def install(self, cluster: "Cluster") -> None:
        """Arm every fault on ``cluster``.

        Rejects faults whose ``at=`` already lies in the past — the
        kernel would otherwise refuse the stale ``call_at`` with an
        error that never names the fault (or, for a plan built against
        the wrong clock, fire it at the wrong point).
        """
        if self.installed:
            raise RuntimeError("fault plan already installed")
        now = cluster.sim.now
        stale = [f for f in self.faults if f.at is not None and f.at < now]
        if stale:
            listing = ", ".join(f.describe() for f in stale)
            raise ValueError(
                f"fault plan schedules {len(stale)} fault(s) in the past "
                f"(sim time is already {now:g}): {listing}"
            )
        self.installed = True
        timed = [f for f in self.faults if f.at is not None]
        watched = [f for f in self.faults if f.when is not None]
        for fault in timed:
            assert fault.at is not None
            cluster.sim.call_at(fault.at, self._firer(cluster, fault))
        if watched:
            cluster.sim.process(self._watch(cluster, watched), name="fault-watcher")

    @staticmethod
    def _firer(cluster: "Cluster", fault: Fault) -> Callable[[], None]:
        def fire() -> None:
            if not fault.fired:
                fault.fired = True
                cluster.obs.annotate("fault", "injector", fault=fault.describe())
                fault.apply(cluster)

        return fire

    def _watch(self, cluster: "Cluster", watched: list[Fault]) -> Iterator[Any]:
        pending = list(watched)
        while pending:
            if self.watch_until is not None and cluster.sim.now >= self.watch_until:
                return
            yield cluster.sim.timeout(self.poll_interval)
            for fault in list(pending):
                assert fault.when is not None
                if fault.when(cluster.trace):
                    fault.fired = True
                    cluster.obs.annotate("fault", "injector", fault=fault.describe())
                    fault.apply(cluster)
                    pending.remove(fault)

    @property
    def all_fired(self) -> bool:
        """True once every fault in the plan has fired."""
        return all(f.fired for f in self.faults)
