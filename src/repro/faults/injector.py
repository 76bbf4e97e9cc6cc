"""Faults as data, and the plan that fires them.

A :class:`Fault` is one frozen, serialisable record: a kind, a victim
and when to fire — at an absolute virtual time (``at=``) or once a
:class:`~repro.faults.triggers.TraceTrigger` has matched (``trigger=``,
tested on the plan's poll grid).  What a kind *does* is its row of
:data:`ACTIONS`::

    FaultPlan([
        Fault("crash", "mds2", trigger=window("at-vote", "mds2")),
        Fault("link", "mds1", peer="mds2", at=1e-3, restore_after=2.0),
    ]).install(cluster)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.faults.triggers import (
    NUMBER,
    ScheduleFormatError,
    TraceTrigger,
    TriggerCounter,
    read_fields,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster
    from repro.sim import TraceRecord

#: Default poll-grid spacing of trace-triggered faults (seconds, virtual).
POLL_INTERVAL = 50e-6

#: A fault's optional fields, in the order ``to_dict`` writes them.
_DELAYS = ("restart_after", "heal_after", "restore_after", "duration")


@dataclass(frozen=True)
class Fault:
    """One fault: a kind, a victim, and when it fires.

    Exactly one of ``at`` (absolute virtual time) and ``trigger`` must
    be set.  The canonical form (:meth:`to_dict`) rides inside campaign
    schedules and so inside run identities and derived seeds.
    """

    kind: str
    node: str = ""
    #: Second endpoint (link faults only).
    peer: str = ""
    at: Optional[float] = None
    trigger: Optional[TraceTrigger] = None
    #: crash: seconds until the restart; None = the cluster's reboot
    #: delay, ``float("inf")`` = never.  The other three: None = never
    #: healed / never restored / stalled for one second.
    restart_after: Optional[float] = None
    heal_after: Optional[float] = None
    restore_after: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ACTIONS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if (self.at is None) == (self.trigger is None):
            raise ValueError("exactly one of 'at' or 'trigger' must be given")
        if not self.node:
            raise ValueError(f"{self.kind} fault requires a node")
        if self.kind == "link" and not self.peer:
            raise ValueError("link fault requires a peer")
        if self.kind == "stall" and self.duration is not None and not self.duration > 0:
            raise ValueError(f"stall fault requires a positive duration, got {self.duration}")

    def apply(self, cluster: "Cluster") -> None:
        """Do to ``cluster`` what this fault's kind does."""
        ACTIONS[self.kind](cluster, self)

    def describe(self) -> str:
        """Deterministic one-line label (the shrinker's unit of work)."""
        when = f"at={self.at:g}" if self.trigger is None else self.trigger.describe()
        target = self.node if not self.peer else f"{self.node}<->{self.peer}"
        return f"{self.kind}({target}, {when})"

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form (optional fields only when set)."""
        doc: dict[str, Any] = {"kind": self.kind, "node": self.node}
        if self.peer:
            doc["peer"] = self.peer
        if self.at is not None:
            doc["at"] = self.at
        if self.trigger is not None:
            doc["trigger"] = self.trigger.to_dict()
        for key in _DELAYS:
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @staticmethod
    def from_dict(doc: Any, path: str = "fault") -> "Fault":
        """Exact inverse of :meth:`to_dict`; anything else is a
        :class:`~repro.faults.triggers.ScheduleFormatError` naming the
        field under ``path``, where ``doc`` sits in its document."""
        optional = {"peer": str, "at": NUMBER, "trigger": dict, **dict.fromkeys(_DELAYS, NUMBER)}
        read_fields(doc, path, {"kind": str, "node": str}, optional)
        values = dict(doc)
        if "trigger" in values:
            values["trigger"] = TraceTrigger.from_dict(values["trigger"], f"{path}.trigger")
        try:
            return Fault(**values)
        except ValueError as err:
            raise ScheduleFormatError(f"{path}: {err}") from None


def _crash(cluster: "Cluster", fault: Fault) -> None:
    """Crash a server; schedule its restart."""
    cluster.crash_server(fault.node)
    if fault.restart_after != float("inf"):
        cluster.restart_server(fault.node, after=fault.restart_after)


def _partition(cluster: "Cluster", fault: Fault) -> None:
    """Cut one node off from the rest; optionally heal."""
    cluster.partition(frozenset({fault.node}))
    if fault.heal_after is not None:
        cluster.sim.call_at(cluster.sim.now + fault.heal_after, cluster.heal_partition)


def _link(cluster: "Cluster", fault: Fault) -> None:
    """Fail one link; optionally restore it."""
    cluster.network.fail_link(fault.node, fault.peer)
    if fault.restore_after is not None:
        cluster.sim.call_at(
            cluster.sim.now + fault.restore_after,
            lambda: cluster.network.restore_link(fault.node, fault.peer),
        )


def _refuse(cluster: "Cluster", fault: Fault) -> None:
    """Make a server refuse its next worker-side vote."""
    cluster.servers[fault.node].fail_next_vote = True


def _stall(cluster: "Cluster", fault: Fault) -> None:
    """Stall a node's log device: occupy one service slot of the disk
    serving it (its private log device, or the shared log manager under
    the shared-log architecture), so queued WAL flushes and remote log
    reads wait the stall out — the classic slow-disk hazard for the 1PC
    fence-then-read recovery path."""
    disk = cluster.storage.disk_of(fault.node)
    cluster.sim.process(
        disk.stall(1.0 if fault.duration is None else fault.duration, actor=f"stall:{fault.node}"),
        name=f"disk-stall:{fault.node}",
    )


#: What each fault kind does.  A new kind is one row here, its field on
#: :class:`Fault` if it needs one, and an entry of the
#: ``generate_schedule`` menu.
ACTIONS: dict[str, Callable[["Cluster", Fault], None]] = {
    "crash": _crash,
    "partition": _partition,
    "link": _link,
    "refuse": _refuse,
    "stall": _stall,
}
FAULT_KINDS = tuple(ACTIONS)

#: The name a kind has in the trace's ``fault`` record.  Pinned: the
#: record's text is inside the recovery and campaign digest goldens.
_TRACE_LABELS = {
    "crash": "CrashFault",
    "partition": "PartitionFault",
    "link": "LinkFault",
    "refuse": "VoteRefusalFault",
    "stall": "DiskStallFault",
}


def _no_backup(cluster: "Cluster", node: str) -> bool:
    """``node`` is no server's backup replica (a link may end at one)."""
    return all(backup.name != node for backup in cluster.backups.values())


def _reject(faults: list[Fault], why: str) -> None:
    if faults:
        listing = ", ".join(f.describe() for f in faults)
        raise ValueError(f"{len(faults)} fault(s) of the plan {why}: {listing}")


class FaultPlan:
    """An ordered schedule of faults bound to a cluster.

    ``trigger=`` faults fire on a *poll grid*: the install instant plus
    ``poll_interval``, added repeatedly.  The plan subscribes to the
    records of the categories its pending triggers filter on, feeds
    each to the hit counters of its category, and arms one kernel
    timer, for the first grid instant not before the record, only when
    a counter reaches its ``min_count``: a trigger is a function of the
    trace alone, so the instants between can fire nothing and cost
    nothing.  The first grid instant at or past ``watch_until``
    (absolute) is the last poll; a plan with nothing left to watch
    unsubscribes.

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
        #: The faults that have fired, in firing order: a fault is immutable
        #: and may serve many plans, so what happened in one run is the plan's.
        self.fired: list[Fault] = []

    def install(self, cluster: "Cluster") -> None:
        """Arm every fault on ``cluster``, replaying its stream to the
        triggers.  Rejects, naming the faults, a node the cluster does
        not have (a link's peer may also be a server's backup replica),
        an ``at=`` already in the past (or built against the wrong
        clock), a ``trigger=`` on an ``"off"`` hub, and on an
        ``"attribute"`` one, which has no stream to replay, a
        ``trigger=`` on a category the hub may have seen already
        (:meth:`~repro.obs.hub.Observability.categories_seen`: once the
        kernel has run, that is every category of a sampled hook site)."""
        if self.installed:
            raise RuntimeError("fault plan already installed")
        now, nodes = cluster.sim.now, cluster.servers
        unknown = [
            f
            for f in self.faults
            if f.node not in nodes or f.peer and f.peer not in nodes and _no_backup(cluster, f.peer)
        ]
        _reject(unknown, f"name a node the cluster does not have (it has {sorted(nodes)})")
        _reject(
            [f for f in self.faults if f.at is not None and f.at < now],
            f"are scheduled in the past (sim time is already {now:g})",
        )
        triggered = [f for f in self.faults if f.trigger is not None]
        if not cluster.obs.enabled:
            _reject(triggered, "are trace-triggered but the hub is off, so they can never fire")
        elif cluster.obs.mode == "attribute":  # no stream to replay
            seen = cluster.obs.categories_seen()
            late = [f for f in triggered if f.trigger is not None and f.trigger.category in seen]
            _reject(late, "are triggered by a category the hub may have already counted")
        self.installed = True
        self._cluster = cluster
        #: Still-unfired triggered faults, each with its hit counter.
        self._pending: list[tuple[Fault, TriggerCounter]] = [
            (f, f.trigger.compile()) for f in self.faults if f.trigger is not None
        ]
        for fault in self.faults:
            if fault.at is not None:
                cluster.sim.at(fault.at, self._fire, fault)
        if not self._pending:
            return
        #: The grid instant last polled or armed; the install instant at first.
        self._last = now
        self._armed = False
        if self.watch_until is not None and now >= self.watch_until:
            return  # past its horizon: no poll left to arm
        self._listen()
        for record in cluster.trace.records:
            if record.category in self._feeds:
                self._on_record(record)

    def _listen(self) -> None:
        """Hear the categories the pending triggers filter on, no other."""
        obs = self._cluster.obs
        obs.unsubscribe(self._on_record)
        #: category -> ``feed`` of every pending counter that filters on it.
        self._feeds: dict[str, list[Callable[["TraceRecord"], bool]]] = {}
        for _fault, counter in self._pending:
            self._feeds.setdefault(counter.trigger.category, []).append(counter.feed)
        obs.subscribe(self._on_record, self._feeds)

    def _fire(self, fault: Fault) -> None:
        self.fired.append(fault)
        trigger = f"at={fault.at}" if fault.at is not None else "on-trace"
        self._cluster.obs.annotate(
            "fault", "injector", fault=f"{_TRACE_LABELS[fault.kind]}({trigger})"
        )
        fault.apply(self._cluster)

    def _on_record(self, record: "TraceRecord") -> None:
        """A record of a watched category: feed its counters; the first
        to reach its count sees to it a poll is armed."""
        for feed in self._feeds[record.category]:
            if feed(record) and not self._armed:
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
        """Fire every pending fault whose count is reached.  A poll is
        armed only when one is, so each poll fires something."""
        for entry in list(self._pending):
            fault, counter = entry
            if counter.hits >= counter.min_count:
                self._fire(fault)
                self._pending.remove(entry)
        self._armed = False
        if not self._pending:
            self._cluster.obs.unsubscribe(self._on_record)
            return
        self._listen()
        # A count the fired faults' own records completed is seen at the
        # next poll.
        if any(counter.hits >= counter.min_count for _fault, counter in self._pending):
            self._arm(self._last)
