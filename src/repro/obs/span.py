"""Transaction spans: the per-transaction view of the event stream.

A :class:`Span` covers one leg of a distributed transaction — the
coordinator's end-to-end run, or one worker's participation — from the
moment the leg opens until its session closes.  Its ``events`` are the
very :class:`~repro.sim.monitor.TraceRecord` objects the hub appended
to the trace (message send/recv, WAL force, lock traffic, crash/fence),
and spans carry parent/child links so a coordinator span owns its
worker legs.

Span *lifecycle* (open, close, attributes, children) happens as the
run goes.  Span *membership* is a fold of the stream, run when the
collector is read: a span's ``events`` are current as of the last
read of its :class:`SpanCollector`.

This is the native abstraction Gray & Lamport's *Consensus on
Transaction Commit* frames commit protocols in: per-transaction message
and stable-write complexity.  The analysis layer folds spans directly
into Table I counts instead of scanning the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.sim.monitor import TraceLog, TraceRecord, nothing_to_fold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


#: Wire kinds that belong to a commit protocol (client traffic and
#: heartbeats excluded) — the messages Table I counts.
PROTOCOL_MSG_KINDS = frozenset(
    {
        "UPDATE_REQ",
        "UPDATED",
        "PREPARE",
        "PREPARED",
        "NOT_PREPARED",
        "COMMIT",
        "ABORT",
        "ACK",
        "DECISION_REQ",
        "ACK_REQ",
        # Paxos Commit (acceptor traffic is protocol traffic).
        "PAXOS_VOTE",
        "PAXOS_ACCEPTED",
        # Logless 1PC (synchronous replication replaces the WAL).
        "REPLICATE",
        "REPLICATED",
    }
)


#: Span roles.
COORDINATOR = "coordinator"
WORKER = "worker"

#: Span statuses.
OPEN = "open"
COMMITTED = "committed"
ABORTED = "aborted"
UNCLOSED = "unclosed"


@dataclass
class Span:
    """One leg of a transaction, with its trace records and child links."""

    span_id: int
    txn_id: int
    name: str
    role: str
    actor: str
    start: float
    protocol: str = ""
    parent_id: Optional[int] = None
    end: Optional[float] = None
    status: str = OPEN
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[TraceRecord] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)
    #: Stream position at which the span opened: it owns no record
    #: appended before.
    opened: int = field(default=0, compare=False, repr=False)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def last_time(self) -> float:
        """Latest timestamp the span knows about (for open-span export)."""
        latest = self.start if self.end is None else self.end
        for event in self.events:
            if event.time > latest:
                latest = event.time
        for child in self.children:
            t = child.last_time()
            if t > latest:
                latest = t
        return latest

    def iter_events(self, recurse: bool = True) -> Iterator[TraceRecord]:
        """Events of this span (and, by default, its descendants), span
        by span, depth first: a chain over the ``events`` lists, so a
        walk costs one frame per span, not one per record."""
        if not recurse:
            return chain(self.events)
        return chain(self.events, *map(Span.iter_events, self.children))


class SpanCollector:
    """Owns every span of a simulation run.

    Indexing: one *root* (coordinator) span per transaction, keyed
    ``(txn_id, None)``, plus one child span per ``(txn_id, worker)``
    leg.  The collector is ``cluster.obs.spans``; only the
    :class:`~repro.obs.hub.Observability` hub writes to it.

    Membership: a record at leg ``(txn_id, node)`` belongs to the leg at
    that node if the leg opened before it, else to the transaction's
    root if the root did, else to ``cluster_events``.  Every query
    below first calls ``refresh``, through which the hub files the
    records appended since the last query; the hub's own lifecycle
    calls read ``_spans`` and fold nothing.
    """

    def __init__(self, sim: "Simulator", trace: Optional[TraceLog] = None) -> None:
        self.sim = sim
        #: The stream the spans group; a span notes its position at open.
        self.trace = TraceLog(sim) if trace is None else trace
        #: Files the records appended since the last query (the hub's fold).
        self.refresh: Callable[[], None] = nothing_to_fold
        #: Records with no owning span (crash, fence, messages outside
        #: any transaction...), kept for the exporters.
        self._cluster_events: list[TraceRecord] = []
        #: Every span, in open order.
        self._spans: dict[tuple[int, Optional[str]], Span] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        self.refresh()
        return iter(self._spans.values())

    @property
    def cluster_events(self) -> list[TraceRecord]:
        self.refresh()
        return self._cluster_events

    # -- lifecycle ----------------------------------------------------------

    def begin(
        self,
        txn_id: int,
        *,
        name: str,
        role: str,
        actor: str,
        protocol: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a span.

        Re-opening an existing leg (duplicate UPDATE_REQ after a crash,
        coordinator re-execution) returns the original span so its
        history stays in one place.
        """
        key = (txn_id, actor if role == WORKER else None)
        span = self._spans.get(key)
        if span is not None:
            return span
        root = self._spans.get((txn_id, None))
        trace = self.trace
        span = self._spans[key] = Span(
            span_id=len(self._spans) + 1,
            txn_id=txn_id,
            name=name,
            role=role,
            actor=actor,
            start=self.sim.now,
            protocol=protocol,
            parent_id=root.span_id if root is not None else None,
            attrs=attrs,
            opened=trace.dropped + len(trace.records),
        )
        if root is not None:
            root.children.append(span)
        return span

    def close(self, span: Span, status: str, **attrs: Any) -> None:
        """Close ``span`` at the current simulated time."""
        if span.end is not None:
            return
        span.end = self.sim.now
        span.status = status
        span.attrs.update(attrs)

    def close_open(self, status: str = UNCLOSED) -> list[Span]:
        """Close every still-open span (e.g. at simulation end).

        A transaction cut short by a crash leaves its span open; the
        exporters call this so such spans still render with a bounded
        duration.  Returns the spans that were closed.
        """
        closed = self.open_spans()
        for span in closed:
            span.end = max(self.sim.now, span.last_time())
            span.status = status
        return closed

    # -- queries ------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Coordinator spans, in open order."""
        return [s for s in self if s.role == COORDINATOR]

    def span_of(self, txn_id: int) -> Optional[Span]:
        """The coordinator span of ``txn_id``."""
        self.refresh()
        return self._spans.get((txn_id, None))

    def leg_of(self, txn_id: int, actor: str) -> Optional[Span]:
        """The worker leg of ``txn_id`` at ``actor``."""
        self.refresh()
        return self._spans.get((txn_id, actor))

    def open_spans(self) -> list[Span]:
        return [s for s in self if s.end is None]

    def events_of(self, txn_id: int) -> list[TraceRecord]:
        """All events of a transaction (root + legs), in time order."""
        root = self.span_of(txn_id)
        if root is None:
            return []
        return sorted(root.iter_events(), key=attrgetter("time"))
