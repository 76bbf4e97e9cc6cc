"""Declarative fault actions and schedules.

A fault fires either at an absolute virtual time (``at=...``) or when a
trace predicate first becomes true (``when=...``, evaluated on the
plan's poll grid once the trace has grown).  Trace-triggered faults
make crash-point tests readable::

    FaultPlan([
        CrashFault("mds2", when=lambda t: t.count("log_durable",
                                                  kind="PREPARED") > 0),
        ...
    ]).install(cluster)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster
    from repro.sim import TraceLog, TraceRecord

TracePredicate = Callable[["TraceLog"], bool]

#: Default poll-grid spacing of trace-triggered faults (seconds, virtual).
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

    ``when=`` faults fire on a *poll grid*: the install instant plus
    ``poll_interval``, added repeatedly.  The plan subscribes to the
    cluster's record stream and arms one kernel timer, for the next
    grid instant, only when the trace has grown since the last poll: a
    ``when=`` is a function of the trace alone, so the instants between
    can fire nothing and cost nothing.  The first grid instant at or
    past ``watch_until`` (absolute) is the last poll; a plan with
    nothing left to watch unsubscribes.

    Tie rule: a poll sees every record appended before it runs.  One
    stamped exactly on a grid instant is seen at that instant unless
    its poll already ran (same-instant events run in arming order);
    then, like a record a fired fault's own ``apply`` emits, it waits
    one interval — except for faults later in plan order, which the
    running poll still checks.
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
        """Arm every fault on ``cluster``.  Rejects, naming the faults,
        an ``at=`` already in the past (or built against the wrong
        clock) and a ``when=`` on a cluster built with ``trace=False``,
        whose empty trace could never fire it."""
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
        watched = [f for f in self.faults if f.when is not None]
        if watched and not cluster.obs.enabled:
            raise ValueError(
                f"fault plan has {len(watched)} trace-triggered fault(s) but the cluster "
                "records no trace, so they can never fire: "
                + ", ".join(f.describe() for f in watched)
            )
        self.installed = True
        self._cluster = cluster
        for fault in self.faults:
            if fault.at is not None:
                cluster.sim.at(fault.at, self._fire, fault)
        if watched:
            self._pending = watched
            #: category -> ``feed`` of each ``when=`` that has one (a compiled
            #: trigger): pushed every record of its category, it never scans.
            self._feeds: dict[str, list[Callable[["TraceRecord"], None]]] = {}
            for when in (f.when for f in watched if hasattr(f.when, "feed")):
                self._feeds.setdefault(when.category, []).append(when.feed)
            #: The grid instant last polled or armed; the install instant at first.
            self._last = now
            self._armed = False
            cluster.obs.subscribe(self._on_record)
            for record in cluster.trace.records:
                self._on_record(record)

    def _fire(self, fault: Fault) -> None:
        if not fault.fired:
            fault.fired = True
            self._cluster.obs.annotate("fault", "injector", fault=fault.describe())
            fault.apply(self._cluster)

    def _on_record(self, record: "TraceRecord") -> None:
        """The trace grew: feed the counters, see to it a poll is armed."""
        if record.category in self._feeds:
            for feed in self._feeds[record.category]:
                feed(record)
        if not self._armed:
            self._arm(record.time)

    def _arm(self, now: float) -> None:
        """Arm the first grid instant past the last that is not before
        ``now``, or unsubscribe past the horizon.  The walk repeats a
        timeout chain's additions: no closed form lands on its floats."""
        until = float("inf") if self.watch_until is None else self.watch_until
        due, step = self._last, self.poll_interval
        if due < until:
            due += step
            limit = min(now, until)
            while due < limit:
                due += step
            if due >= now:
                self._last = due
                self._armed = True
                self._cluster.sim.at(due, self._poll)
                return
        self._cluster.obs.unsubscribe(self._on_record)

    def _poll(self, _value: None) -> None:
        fired = False
        for fault in list(self._pending):
            if fault.when(self._cluster.trace):
                self._fire(fault)
                self._pending.remove(fault)
                fired = True
        self._armed = False
        if not self._pending:
            self._cluster.obs.unsubscribe(self._on_record)
        elif fired:
            # Only what the faults fired here emitted is news to the next poll.
            self._arm(self._last)

    @property
    def all_fired(self) -> bool:
        """True once every fault in the plan has fired."""
        return all(f.fired for f in self.faults)
