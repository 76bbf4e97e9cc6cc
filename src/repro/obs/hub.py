"""The observability hub: one object every subsystem reports into.

:class:`Observability` owns the cluster's event stream and the two
views folded from it:

* ``trace`` — the :class:`~repro.sim.monitor.TraceLog`, an append-only
  list of :class:`~repro.sim.monitor.TraceRecord` (what golden traces,
  fault triggers and the utilisation folds read);
* ``spans`` — the :class:`~repro.obs.span.SpanCollector`, which groups
  *the same record objects* by transaction leg (what the Table-I
  accounting and the exporters fold);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  (a counter per record category, simulated-time histograms).

Subsystems call the typed hooks below (``msg_send``, ``log_append``,
``lock_grant``, ``txn_start``...) instead of writing trace strings.
Every hook early-outs when the hub is disabled, then makes one call to
:meth:`Observability._emit`, which does three things: allocate the
record, append it to the stream, hand it to the listeners.  The record
carries the node of the span leg its hook names (``TraceRecord.node``;
the leg is ``(detail["txn"], node)``).

Spans and metrics are one fold of the stream (:meth:`Observability._fold`),
run from where the last one stopped whenever either view is *read*, and
before :meth:`~repro.sim.monitor.TraceLog.clear` drops records.  A run
that reads only the stream never pays for them.  The fold is exact by
construction: a span notes the stream position it opened at, so a
record is filed where it would have been filed the moment it was
appended, and a ``txn_done`` observes its tree's forced writes and
protocol messages as of its own position.  Span *lifecycle* — open,
close, attributes, children — has no record of its own (a worker
session opening, ``txn_start``'s client) and stays eager.

That is the ``"full"`` mode of :data:`MODES`.  An ``"attribute"`` hub
has no stream and no span: its ``_emit`` is a fold of each hook's
arguments, which a full hub feeds its stream when that fold is read.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.obs.span import (
    PROTOCOL_MSG_KINDS,
    COORDINATOR,
    WORKER,
    ABORTED,
    COMMITTED,
    Span,
    SpanCollector,
)
from repro.obs.metrics import MetricsRegistry
from repro.analysis.streaming import StreamingStats
from repro.sim.monitor import TraceLog, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


#: Record category -> the counter each such record bumps.  The two
#: categories that split on a boolean are keyed ``(category, flag)``.
_COUNTERS: dict[Any, str] = {
    "txn_start": "txn.started",
    ("txn_done", True): "txn.committed",
    ("txn_done", False): "txn.aborted",
    "fallback_protocol": "txn.fallback",
    "msg_send": "net.sent",
    "msg_recv": "net.received",
    "msg_drop": "net.dropped",
    ("log_append", True): "wal.forced_appends",
    ("log_append", False): "wal.lazy_appends",
    "log_crash": "wal.crashes",
    "log_gc": "wal.gc_records",
    "lock_grant": "locks.granted",
    "lock_wait": "locks.waits",
    "lock_timeout": "locks.timeouts",
    "crash": "node.crashes",
    "fence": "fencing.fences",
}

#: The categories that split, and the detail flag they split on.
_SPLIT = {"txn_done": "committed", "log_append": "sync"}

#: What a hub keeps: nothing; what the hooks fold; or the stream.
MODES = ("off", "attribute", "full")

#: A transaction's accumulator at ``txn_done``: seconds in lock waits,
#: in a node's forces (overlapping ones once) and on the wire; forces
#: (Table I's sync writes, one per node and instant); protocol messages.
COMPONENTS = ("lock_wait", "forced_write", "network", "forces", "messages")
# Accumulator slots: protocol, op, the COMPONENTS, sync appends.
_LOCK_WAIT, _FORCE_TIME, _NETWORK, _FORCES, _MESSAGES, _APPENDS = range(2, 8)


class _Memo(dict):
    """A dict that computes a missing value once, with ``make``: a hit
    is a plain subscript, which costs no call.  (No ``__init__``: a hub
    is built on every run, traced or not, so its constructor enters no
    frame of its own.)"""

    __slots__ = ("make",)
    make: Callable[[Any], Any]

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


def _lock_node(manager: str) -> str:
    """The node a lock manager ``locks:<node>`` serves."""
    return manager.removeprefix("locks:")


class Observability:
    """Injected instrumentation hub (see module docstring)."""

    def __init__(self, sim: "Simulator", mode: str = "full") -> None:
        if mode not in MODES:
            raise TypeError(f"a hub's mode is one of {MODES}, not {mode!r}")
        self.sim = sim
        self.mode = mode
        #: The hot-path guard: an ``off`` hub counts nothing.
        self.enabled = mode != "off"
        self.trace = TraceLog(sim)
        self.spans = SpanCollector(sim, self.trace)
        self.metrics = MetricsRegistry()
        # Both views are read through the one fold, which also runs
        # before the trace drops records.
        self.spans.refresh = self.metrics.refresh = self._fold
        self.trace.before_clear = self._catch_up
        #: The collector's span table, for the lifecycle hooks (a lookup
        #: there folds nothing).
        self._spans = self.spans._spans
        #: Listeners of every record, and category -> listeners of that
        #: category only.  Replaced, never mutated, so a listener may
        #: unsubscribe from inside its call.
        self._every: list[Callable[[TraceRecord], None]] = []
        self._heard: dict[str, list[Callable[[TraceRecord], None]]] = {}
        #: Lock-manager name -> the node whose legs its records belong to.
        self._lock_nodes = _Memo()
        self._lock_nodes.make = _lock_node
        # -- the fold's state --------------------------------------------
        #: Stream position of the first record not yet folded.
        self._folded = 0
        #: ``_COUNTERS`` key -> its counter (or None), bound at the key's
        #: first record: the registry lists only counters that were bumped.
        self._bound = _Memo()
        self._bound.make = self._bind
        #: Histogram name -> its ``observe``, the histogram created at
        #: its first observation.
        self._observe = _Memo()
        self._observe.make = self._observer
        #: (lock-manager name, txn, obj) -> grant time, for hold times.
        self._grants: dict[tuple[str, Any, Any], float] = {}
        # -- the attribute fold's state (full mode: the shadow hub's) ----
        self._shadow: Optional[Observability] = None
        self._replayed = 0  # stream position the shadow was fed up to
        self._edges: set[tuple[Any, Any]] = set()  # (earlier, later)
        #: Lock manager -> obj -> [last integer grantee, {owner: grant
        #: time}]: one lookup serves the chain and the hold time.
        self._locks: dict[str, dict[Any, list]] = {}
        #: (lock manager, txn) -> wait start: a leg waits on one lock.
        self._waits: dict[tuple[str, int], float] = {}
        #: (node, txn) -> [first pending start, pending, last force time].
        self._forcing: dict[tuple[str, int], list] = {}
        self._sent: dict[int, float] = {}  # msg_id -> send time
        self._txns: dict[int, list] = {}  # txn -> accumulator, start to done
        self._components = _Memo()  # (protocol, op) -> StreamingStats each
        self._components.make = lambda key: tuple(
            StreamingStats(label="/".join((*key, c))) for c in COMPONENTS
        )
        if mode == "attribute":
            self._emit = self._attribute  # type: ignore[method-assign]

    # -- the single write path ------------------------------------------------

    def _emit(
        self,
        category: str,
        actor: str,
        detail: dict[str, Any],
        node: Optional[str] = None,
    ) -> None:
        """Allocate one record, append it to the stream, hand it to the
        listeners.  ``node`` names the span leg that owns the record,
        ``(detail["txn"], node)``, from the hook that holds both; None
        keeps the record off the spans."""
        record = TraceRecord(self.sim.now, category, actor, detail, node)
        self.trace.records.append(record)
        for listener in self._every:
            listener(record)
        if category in self._heard:
            for listener in self._heard[category]:
                listener(record)

    def subscribe(
        self, listener: Callable[[TraceRecord], None], categories: Optional[Iterable[str]] = None
    ) -> None:
        """Call ``listener(record)`` for every record appended from now
        on, or only for those of ``categories`` when given.  A record
        reaches the listeners of every record first, then those of its
        category, each in subscription order."""
        if categories is None:
            self._every = self._every + [listener]
            return
        heard = {category: list(known) for category, known in self._heard.items()}
        for category in categories:
            heard.setdefault(category, []).append(listener)
        self._heard = heard

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        self._every = [known for known in self._every if known != listener]
        heard = {
            category: [known for known in listeners if known != listener]
            for category, listeners in self._heard.items()
        }
        self._heard = {category: known for category, known in heard.items() if known}

    @property
    def listeners(self) -> list[Callable[[TraceRecord], None]]:
        """Every subscribed listener, once, whatever it listens to."""
        return list(dict.fromkeys(chain(self._every, *self._heard.values())))

    def annotate(self, category: str, actor: str, **detail: Any) -> None:
        """Generic event of any category (protocol milestones, faults,
        device traffic); one naming a ``txn`` also lands on its span."""
        if not self.enabled:
            return
        txn = detail.get("txn")
        self._emit(category, actor, detail, None if txn is None else actor)

    # -- the fold ---------------------------------------------------------------

    def _bind(self, key: Any) -> Any:
        name = _COUNTERS.get(key)
        return None if name is None else self.metrics._counter(name)

    def _observer(self, name: str) -> Callable[[float], None]:
        return self.metrics._histogram(name).observe

    def _fold(self) -> None:
        """File the records appended since the last fold: each into its
        span (the leg at its node if that opened before it, else its
        root if that did, else ``cluster_events``), its counter, and the
        histograms — lock hold times, client latency, and each finished
        transaction's forced writes and protocol messages."""
        trace = self.trace
        records = trace.records
        start = self._folded - trace.dropped
        if start >= len(records):
            return
        spans = self._spans
        unowned = self.spans._cluster_events
        bound = self._bound
        observe = self._observe
        grants = self._grants
        position = self._folded
        for record in islice(records, start, None):
            category = record.category
            detail = record.detail
            if record.node is not None:
                txn = detail["txn"] if "txn" in detail else None
                key = (txn, record.node)
                span = spans[key] if key in spans else None
                if span is None or span.opened > position:
                    key = (txn, None)
                    span = spans[key] if key in spans else None
                    if span is not None and span.opened > position:
                        span = None
                (unowned if span is None else span.events).append(record)
            counter = bound[(category, detail[_SPLIT[category]]) if category in _SPLIT else category]
            if counter is not None:
                counter.value += detail["removed"] if category == "log_gc" else 1.0
            if category == "lock_grant":
                grants[(record.actor, detail["txn"], detail["obj"])] = record.time
            elif category == "lock_release":
                held = (record.actor, detail["txn"], detail["obj"])
                if held in grants:
                    observe["locks.hold_time"](record.time - grants[held])
                    del grants[held]
            elif category == "txn_done":
                observe["txn.client_latency"](detail["latency"])
                key = (detail["txn"], None)
                root = spans[key] if key in spans else None
                if root is not None and root.opened <= position:
                    # The tree as filed so far: what it held at this record.
                    forced = messages = 0
                    for event in root.iter_events():
                        if event.category == "log_append":
                            if event.detail["sync"]:
                                forced += 1
                        elif (
                            event.category == "msg_send"
                            and event.detail["kind"] in PROTOCOL_MSG_KINDS
                        ):
                            messages += 1
                    observe["txn.forced_writes"](float(forced))
                    observe["txn.messages"](float(messages))
            elif category == "crash":
                # Its lock table is gone and no release will name what it
                # held: the hold-time shadow of those grants goes with it.
                manager = f"locks:{record.actor}"
                grants = {k: t for k, t in grants.items() if k[0] != manager}
                self._grants = grants
            position += 1
        self._folded = position

    # -- the attribute fold ------------------------------------------------------

    def _attribute(
        self,
        category: str,
        actor: str,
        detail: dict[str, Any],
        node: Optional[str] = None,
        now: Optional[float] = None,
    ) -> None:
        """Attribute mode's ``_emit``: fold one hook's arguments, in this
        one frame, as the full fold would file its record, into the edges
        and the accumulator; build the record only for a listener.  A
        replay passes the record's time as ``now``."""
        now = self.sim.now if now is None else now
        split = (category, detail[_SPLIT[category]]) if category in _SPLIT else category
        counter = self._bound[split]
        if counter is not None:
            counter.value += detail["removed"] if category == "log_gc" else 1.0
        txns = self._txns
        if category == "log_append":
            if detail["sync"] and detail["txn"] in txns:
                accumulator = txns[detail["txn"]]
                accumulator[_APPENDS] += 1
                key = (actor, detail["txn"])
                if key not in self._forcing:
                    self._forcing[key] = [now, 0, None]
                pending = self._forcing[key]
                pending[1] += 1
                if pending[2] != now:
                    pending[2] = now
                    accumulator[_FORCES] += 1
        elif category == "log_durable":
            key = (actor, detail["txn"])
            if detail["sync"] and key in self._forcing:
                pending = self._forcing[key]
                pending[1] -= 1
                if not pending[1]:
                    del self._forcing[key]
                    if key[1] in txns:
                        txns[key[1]][_FORCE_TIME] += now - pending[0]
        elif category == "msg_send":
            if detail["txn"] in txns:
                self._sent[detail["msg_id"]] = now
                txns[detail["txn"]][_MESSAGES] += detail["kind"] in PROTOCOL_MSG_KINDS
        elif category == "msg_recv":
            sent = self._sent
            if detail["msg_id"] in sent:
                if detail["txn"] in txns:
                    txns[detail["txn"]][_NETWORK] += now - sent[detail["msg_id"]]
                del sent[detail["msg_id"]]
        elif category == "lock_wait":
            if detail["txn"] in txns:
                self._waits[(actor, detail["txn"])] = now
        elif category == "lock_grant" or category == "lock_timeout":
            txn = detail["txn"]
            waits = self._waits
            key = (actor, txn)
            if key in waits:
                if txn in txns:
                    txns[txn][_LOCK_WAIT] += now - waits[key]
                del waits[key]
            if category == "lock_grant":
                locks = self._locks
                held = locks[actor] if actor in locks else locks.setdefault(actor, {})
                slot = held.get(detail["obj"])
                if slot is None:
                    slot = held[detail["obj"]] = [None, {}]
                slot[1][txn] = now
                if txn.__class__ is int:
                    if slot[0] is not None and slot[0] != txn:
                        self._edges.add((slot[0], txn))
                    slot[0] = txn
        elif category == "lock_release" and actor in self._locks:
            slot = self._locks[actor].get(detail["obj"])
            if slot is not None and detail["txn"] in slot[1]:
                self._observe["locks.hold_time"](now - slot[1][detail["txn"]])
                del slot[1][detail["txn"]]
        elif category == "txn_start":
            if detail["txn"] not in txns:
                txns[detail["txn"]] = [detail["protocol"], detail["op"], 0.0, 0.0, 0.0, 0, 0, 0]
        elif category == "txn_done":
            self._observe["txn.client_latency"](detail["latency"])
            if detail["txn"] in txns:
                accumulator = txns[detail["txn"]]
                del txns[detail["txn"]]
                self._observe["txn.forced_writes"](float(accumulator[_APPENDS]))
                self._observe["txn.messages"](float(accumulator[_MESSAGES]))
                row = self._components[accumulator[0], accumulator[1]]
                for stats, value in zip(row, accumulator[_LOCK_WAIT:_APPENDS]):
                    stats.observe(value)
        elif category == "crash":
            # Its lock table is gone, and with it chains, holds and waits.
            manager = f"locks:{actor}"
            self._locks.pop(manager, None)
            self._waits = {k: t for k, t in self._waits.items() if k[0] != manager}
        elif category == "log_crash":
            # Its pending forces will never be durable.
            self._forcing = {k: f for k, f in self._forcing.items() if k[0] != actor}
        if self._every or category in self._heard:
            record = TraceRecord(now, category, actor, detail, node)
            for listener in self._every:
                listener(record)
            if category in self._heard:
                for listener in self._heard[category]:
                    listener(record)

    def _attributed(self) -> "Observability":
        """This hub, or for a full one the shadow hub whose attribute
        fold it feeds the records appended since the last read."""
        if self.mode != "full":
            return self
        if self._shadow is None:
            self._shadow = Observability(self.sim, "attribute")
        trace = self.trace
        for r in islice(trace.records, self._replayed - trace.dropped, None):
            self._shadow._attribute(r.category, r.actor, r.detail, r.node, r.time)
        self._replayed = trace.dropped + len(trace.records)
        return self._shadow

    def _catch_up(self) -> None:
        """Before the trace drops records: every fold of them catches up."""
        self._fold()
        self._attributed()

    def categories_seen(self) -> set[str]:
        """The categories of every record counted so far."""
        self._fold()
        return {key[0] if key.__class__ is tuple else key for key in self._bound}

    def precedence(self) -> set[tuple[Any, Any]]:
        """``earlier -> later`` for consecutive grants of one object by one
        lock manager to distinct integer transactions.  A node's ``crash``
        cuts its manager's chains: recovery re-acquires in its own order."""
        return set(self._attributed()._edges)

    def attribution(self) -> dict[tuple[str, str, str], StreamingStats]:
        """``(protocol, op, component)`` -> the distribution, over the
        finished transactions, of each of :data:`COMPONENTS`."""
        rows = self._attributed()._components.items()
        return {(*key, c): stats for key, row in rows for c, stats in zip(COMPONENTS, row)}

    # -- transaction lifecycle ----------------------------------------------

    def txn_start(
        self,
        actor: str,
        txn: int,
        *,
        op: str,
        protocol: str,
        submitted_at: float,
        client: str = "",
    ) -> Optional[Span]:
        """A coordinator opened a transaction: record + root span."""
        if not self.enabled:
            return None
        self._emit("txn_start", actor, {"txn": txn, "op": op, "protocol": protocol})
        if self.mode != "full":
            return None
        return self.spans.begin(
            txn,
            name=op,
            role=COORDINATOR,
            actor=actor,
            protocol=protocol,
            submitted_at=submitted_at,
            client=client,
        )

    def txn_fallback(self, actor: str, txn: int, *, op: str, workers: int) -> None:
        if not self.enabled:
            return
        detail = {"txn": txn, "op": op, "workers": workers}
        self._emit("fallback_protocol", actor, detail, actor)

    def worker_open(self, actor: str, txn: int, *, opener: str, protocol: str = "") -> None:
        """A worker session opened for a remote transaction (span only —
        the stream has no record for this)."""
        if not self.enabled or self.mode == "attribute":
            return
        self.spans.begin(
            txn, name=opener, role=WORKER, actor=actor, protocol=protocol
        )

    def worker_close(self, actor: str, txn: int) -> None:
        """A worker session closed; its leg span ends now.

        The leg inherits the transaction's outcome when it is already
        decided; otherwise it just reads "closed" (e.g. a 2PC worker
        ACKs and closes before the coordinator finishes).
        """
        if not self.enabled or self.mode == "attribute":
            return
        leg = self._spans.get((txn, actor))
        if leg is not None:
            root = self._spans.get((txn, None))
            status = root.status if root is not None and root.closed else "closed"
            self.spans.close(leg, status)

    def client_reply(self, actor: str, txn: int, *, committed: bool, op: str) -> None:
        if not self.enabled:
            return
        detail = {"txn": txn, "committed": committed, "op": op}
        self._emit("client_reply", actor, detail, actor)
        root = self._spans.get((txn, None)) if self.mode == "full" else None
        if root is not None:
            root.attrs["replied_at"] = self.sim.now

    def txn_done(
        self,
        actor: str,
        txn: int,
        *,
        committed: bool,
        op: str,
        latency: float,
        replied_at: float,
        reason: str = "",
    ) -> None:
        """A transaction finished at its coordinator: close the root
        span (its per-transaction metrics are the fold's)."""
        if not self.enabled:
            return
        self._emit(
            "txn_done",
            actor,
            {"txn": txn, "committed": committed, "op": op, "latency": latency},
        )
        root = self._spans.get((txn, None)) if self.mode == "full" else None
        if root is not None:
            self.spans.close(
                root,
                COMMITTED if committed else ABORTED,
                replied_at=replied_at,
                reason=reason,
            )

    # -- network -------------------------------------------------------------

    def msg_send(
        self, actor: str, *, kind: str, dst: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": kind, "dst": dst, "txn": txn, "msg_id": msg_id}
        self._emit("msg_send", actor, detail, actor)

    def msg_recv(
        self, actor: str, *, kind: str, src: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": kind, "src": src, "txn": txn, "msg_id": msg_id}
        self._emit("msg_recv", actor, detail, actor)

    def msg_drop(self, actor: str, *, reason: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        self._emit("msg_drop", actor, {"reason": reason, "kind": kind, **detail}, actor)

    # -- write-ahead log ------------------------------------------------------

    def log_append(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        # ``kind`` arrives as the log's own ``RecordKind`` and becomes a
        # ``str`` here, after the early-out: a disabled hub formats nothing.
        if not self.enabled:
            return
        detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
        self._emit("log_append", actor, detail, actor)

    def log_durable(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
        self._emit("log_durable", actor, detail, actor)

    def log_crash(self, actor: str, *, lost_jobs: int) -> None:
        if not self.enabled:
            return
        self._emit("log_crash", actor, {"lost_jobs": lost_jobs})

    def log_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("log_restart", actor, {})

    def log_gc(self, actor: str, *, txn: int, removed: int) -> None:
        if not self.enabled:
            return
        self._emit("log_gc", actor, {"txn": txn, "removed": removed})

    # -- locks ----------------------------------------------------------------
    #
    # A lock record's actor is its manager, ``locks:<node>``; it belongs
    # to that node's leg of a transaction owner (an ``int``), and an
    # owner that is not a transaction keeps it off the spans.

    def lock_grant(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        # ``mode`` arrives as the table's own ``LockMode`` (a ``str``) and
        # is unwrapped after the early-out, like ``kind`` above.
        if not self.enabled:
            return
        detail = {"txn": txn, "obj": obj, "mode": str(mode)}
        node = self._lock_nodes[manager] if txn.__class__ is int else None
        self._emit("lock_grant", manager, detail, node)

    def lock_upgrade(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._emit("lock_upgrade", manager, {"txn": txn, "obj": obj})

    def lock_wait(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        if not self.enabled:
            return
        detail = {"txn": txn, "obj": obj, "mode": str(mode)}
        node = self._lock_nodes[manager] if txn.__class__ is int else None
        self._emit("lock_wait", manager, detail, node)

    def lock_timeout(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        node = self._lock_nodes[manager] if txn.__class__ is int else None
        self._emit("lock_timeout", manager, {"txn": txn, "obj": obj}, node)

    def lock_release(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        node = self._lock_nodes[manager] if txn.__class__ is int else None
        self._emit("lock_release", manager, {"txn": txn, "obj": obj}, node)

    # -- nodes, fencing --------------------------------------------------------

    def node_crash(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("crash", actor, {}, actor)

    def node_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("restart", actor, {}, actor)

    def node_recovered(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("recovered", actor, {})

    def fence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._emit("fence", by, {"target": target}, by)

    def unfence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._emit("unfence", by, {"target": target}, by)
