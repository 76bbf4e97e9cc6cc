"""The observability hub: one object every subsystem reports into.

:class:`Observability` owns the cluster's event stream and its views:

* ``trace`` — the :class:`~repro.sim.monitor.TraceLog`, an append-only
  list of :class:`~repro.sim.monitor.TraceRecord` (what golden traces,
  fault triggers and the utilisation folds read);
* ``spans`` — the :class:`~repro.obs.span.SpanCollector`, which groups
  *the same record objects* by transaction leg (what the Table-I
  accounting and the exporters fold);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  (a counter per record category, simulated-time histograms);
* ``precedence()`` and ``attribution()`` — the lock-precedence edges
  and each finished transaction's latency components.

Subsystems call the typed hooks below (``msg_send``, ``log_append``,
``lock_grant``, ``txn_start``...) instead of writing trace strings.
Every hook early-outs when the hub is disabled, then folds its own
arguments, inline in its own frame, into what its category feeds: its
count, the lock table, the per-transaction accumulator, the
histograms.  Only when a record is wanted — always in a full hub, in
an attribute hub for a category a listener subscribed to — does it
call :meth:`Observability._emit`, which allocates the record, appends
it to a full hub's stream and hands it to the listeners.  The record
carries the node of the span leg its hook names (``TraceRecord.node``;
the leg is ``(detail["txn"], node)``).

A read of the registry copies the counts into its counters; a read of
``attribution()`` observes the finished accumulators a fixed buffer
holds.  Span membership is a fold of the stream
(:meth:`Observability._fold`), run from where the last one stopped
whenever the spans are *read*, and before
:meth:`~repro.sim.monitor.TraceLog.clear` drops records: a span notes
the stream position it opened at, so a record is filed where it would
have been filed the moment it was appended.  Span *lifecycle* — open,
close, attributes, children — has no record of its own and stays eager.
"""

from __future__ import annotations

from collections import defaultdict
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


#: Count key -> the counter it feeds.  A count is keyed by its record
#: category; the two that split on a boolean are keyed ``(category, flag)``.
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

#: Category -> the typed hook that writes and folds it: ``annotate``
#: refuses these.
_HOOKS = {
    **{c: c for c in ("txn_start", "txn_done", "client_reply", "fence", "unfence")},
    **{f"msg_{c}": f"msg_{c}" for c in ("send", "recv", "drop")},
    **{f"log_{c}": f"log_{c}" for c in ("append", "durable", "crash", "restart", "gc")},
    **{f"lock_{c}": f"lock_{c}" for c in ("grant", "upgrade", "wait", "timeout", "release")},
    "fallback_protocol": "txn_fallback",
    **{c: f"node_{c}" for c in ("crash", "restart", "recovered")},
}

#: What a hub keeps: nothing; what the hooks fold; or that and the stream.
MODES = ("off", "attribute", "full")

#: A transaction's accumulator at ``txn_done``: seconds in lock waits,
#: in a node's forces (overlapping ones once) and on the wire; forces
#: (Table I's sync writes, one per node and instant); protocol messages.
COMPONENTS = ("lock_wait", "forced_write", "network", "forces", "messages")
# Accumulator slots: protocol, op, the COMPONENTS, sync appends.
_LOCK_WAIT, _FORCE_TIME, _NETWORK, _FORCES, _MESSAGES, _APPENDS = range(2, 8)

#: Finished accumulators a hub holds before it observes their components.
_FINISHED = 256


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
        # The spans are filed when read, and before the trace drops
        # records; the counters are copied when the registry is read.
        self.spans.refresh = self.trace.before_clear = self._fold
        self.metrics.refresh = self._tally
        #: The collector's span table, for the lifecycle hooks (a lookup
        #: there folds nothing).
        self._spans = self.spans._spans
        #: Listeners of every record, and category -> listeners of that
        #: category only.  Replaced, never mutated, so a listener may
        #: unsubscribe from inside its call.
        self._every: list[Callable[[TraceRecord], None]] = []
        self._heard: dict[str, list[Callable[[TraceRecord], None]]] = {}
        #: Whether every hook builds its record: a full hub streams them
        #: all, and a listener of every record hears them all.
        self._every_record = mode == "full"
        #: Lock-manager name -> the node whose legs its records belong to.
        self._lock_nodes = _Memo()
        self._lock_nodes.make = _lock_node
        #: Stream position of the first record not yet filed into a span.
        self._folded = 0
        # -- what the hooks fold ---------------------------------------------
        #: ``_COUNTERS`` key (or any other category) -> its count.
        self._counts: defaultdict[Any, float] = defaultdict(float)
        #: Histogram name -> its ``observe``, the histogram created at
        #: its first observation.
        self._observe = _Memo()
        self._observe.make = self._observer
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
        #: Finished accumulators whose components are not yet observed.
        self._finished: list[Optional[list]] = [None] * _FINISHED
        self._filled = 0
        self._components = _Memo()  # (protocol, op) -> StreamingStats each
        self._components.make = lambda key: tuple(
            StreamingStats(label="/".join((*key, c))) for c in COMPONENTS
        )

    # -- the single write path ------------------------------------------------

    def _emit(
        self,
        category: str,
        actor: str,
        detail: dict[str, Any],
        node: Optional[str] = None,
    ) -> None:
        """Allocate one record, append it to a full hub's stream, hand it
        to the listeners.  ``node`` names the span leg that owns the
        record, ``(detail["txn"], node)``, from the hook that holds both;
        None keeps the record off the spans."""
        record = TraceRecord(self.sim.now, category, actor, detail, node)
        if self.mode == "full":
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
            self._every_record = True
            return
        heard = {category: list(known) for category, known in self._heard.items()}
        for category in categories:
            heard.setdefault(category, []).append(listener)
        self._heard = heard

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        self._every = [known for known in self._every if known != listener]
        self._every_record = self.mode == "full" or bool(self._every)
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
        """Generic event of a category no typed hook writes (protocol
        milestones, faults, device traffic); one naming a ``txn`` also
        lands on its span.  A hook's category is refused: its record
        would miss that hook's fold."""
        if not self.enabled:
            return
        if category in _HOOKS:
            raise ValueError(
                f"annotate({category!r}) would bypass its fold: call the hook "
                f"{_HOOKS[category]}() instead"
            )
        self._counts[category] += 1.0
        if self._every_record or category in self._heard:
            self._emit(category, actor, detail, None if detail.get("txn") is None else actor)

    # -- reads ----------------------------------------------------------------

    def _observer(self, name: str) -> Callable[[float], None]:
        return self.metrics._histogram(name).observe

    def _tally(self) -> None:
        """Copy the counts into the registry's counters, each created at
        its first read: the registry lists only counters that counted."""
        counter = self.metrics._counter
        for key, count in self._counts.items():
            if key in _COUNTERS:
                counter(_COUNTERS[key]).value = count

    def _fold(self) -> None:
        """File the records appended since the last fold, each into its
        span: the leg at its node if that opened before it, else its
        root if that did, else ``cluster_events``."""
        trace = self.trace
        records = trace.records
        start = self._folded - trace.dropped
        if start >= len(records):
            return
        spans = self._spans
        unowned = self.spans._cluster_events
        position = self._folded
        for record in islice(records, start, None):
            if record.node is not None:
                txn = record.detail["txn"] if "txn" in record.detail else None
                key = (txn, record.node)
                span = spans[key] if key in spans else None
                if span is None or span.opened > position:
                    key = (txn, None)
                    span = spans[key] if key in spans else None
                    if span is not None and span.opened > position:
                        span = None
                (unowned if span is None else span.events).append(record)
            position += 1
        self._folded = position

    def _settle(self) -> None:
        """Observe the finished accumulators' components, oldest first."""
        components = self._components
        for accumulator in islice(self._finished, self._filled):
            row = components[accumulator[0], accumulator[1]]
            for stats, value in zip(row, accumulator[_LOCK_WAIT:_APPENDS]):
                stats.observe(value)
        self._filled = 0

    def categories_seen(self) -> set[str]:
        """The categories of every hook and annotation counted so far."""
        return {key[0] if key.__class__ is tuple else key for key in self._counts}

    def precedence(self) -> set[tuple[Any, Any]]:
        """``earlier -> later`` for consecutive grants of one object by one
        lock manager to distinct integer transactions.  A node's ``crash``
        cuts its manager's chains: recovery re-acquires in its own order."""
        return set(self._edges)

    def attribution(self) -> dict[tuple[str, str, str], StreamingStats]:
        """``(protocol, op, component)`` -> the distribution, over the
        finished transactions, of each of :data:`COMPONENTS`."""
        self._settle()
        rows = self._components.items()
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
        """A coordinator opened a transaction: its accumulator, its
        record and its root span."""
        if not self.enabled:
            return None
        self._counts["txn_start"] += 1.0
        if txn not in self._txns:
            self._txns[txn] = [protocol, op, 0.0, 0.0, 0.0, 0, 0, 0.0]
        if self._every_record or "txn_start" in self._heard:
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
        self._counts["fallback_protocol"] += 1.0
        if self._every_record or "fallback_protocol" in self._heard:
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
        self._counts["client_reply"] += 1.0
        if self._every_record or "client_reply" in self._heard:
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
        """A transaction finished at its coordinator: observe its latency,
        forced writes and protocol messages, file its accumulator, close
        its root span."""
        if not self.enabled:
            return
        self._counts["txn_done", committed] += 1.0
        self._observe["txn.client_latency"](latency)
        txns = self._txns
        if txn in txns:
            accumulator = txns[txn]
            del txns[txn]
            self._observe["txn.forced_writes"](accumulator[_APPENDS])
            self._observe["txn.messages"](float(accumulator[_MESSAGES]))
            self._finished[self._filled] = accumulator
            self._filled += 1
            if self._filled == _FINISHED:
                self._settle()
        if self._every_record or "txn_done" in self._heard:
            detail = {"txn": txn, "committed": committed, "op": op, "latency": latency}
            self._emit("txn_done", actor, detail)
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
        self._counts["msg_send"] += 1.0
        if txn in self._txns:
            self._sent[msg_id] = self.sim.now
            self._txns[txn][_MESSAGES] += kind in PROTOCOL_MSG_KINDS
        if self._every_record or "msg_send" in self._heard:
            detail = {"kind": kind, "dst": dst, "txn": txn, "msg_id": msg_id}
            self._emit("msg_send", actor, detail, actor)

    def msg_recv(
        self, actor: str, *, kind: str, src: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        self._counts["msg_recv"] += 1.0
        sent = self._sent
        if msg_id in sent:
            if txn in self._txns:
                self._txns[txn][_NETWORK] += self.sim.now - sent[msg_id]
            del sent[msg_id]
        if self._every_record or "msg_recv" in self._heard:
            detail = {"kind": kind, "src": src, "txn": txn, "msg_id": msg_id}
            self._emit("msg_recv", actor, detail, actor)

    def msg_drop(
        self, actor: str, *, reason: str, kind: str, msg_id: Optional[int] = None, **detail: Any
    ) -> None:
        """A message lost; ``msg_id``, given for one dropped in flight,
        forgets its send time and stays off the record."""
        if not self.enabled:
            return
        self._counts["msg_drop"] += 1.0
        if msg_id in self._sent:
            del self._sent[msg_id]
        if self._every_record or "msg_drop" in self._heard:
            self._emit("msg_drop", actor, {"reason": reason, "kind": kind, **detail}, actor)

    # -- write-ahead log ------------------------------------------------------

    def log_append(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        # ``kind`` arrives as the log's own ``RecordKind`` and becomes a
        # ``str`` only for a record: a hub that builds none formats nothing.
        if not self.enabled:
            return
        self._counts["log_append", sync] += 1.0
        if sync and txn in self._txns:
            accumulator = self._txns[txn]
            accumulator[_APPENDS] += 1
            key = (actor, txn)
            if key not in self._forcing:
                self._forcing[key] = [self.sim.now, 0, None]
            pending = self._forcing[key]
            pending[1] += 1
            if pending[2] != self.sim.now:
                pending[2] = self.sim.now
                accumulator[_FORCES] += 1
        if self._every_record or "log_append" in self._heard:
            detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
            self._emit("log_append", actor, detail, actor)

    def log_durable(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        if not self.enabled:
            return
        self._counts["log_durable"] += 1.0
        key = (actor, txn)
        if sync and key in self._forcing:
            pending = self._forcing[key]
            pending[1] -= 1
            if not pending[1]:
                del self._forcing[key]
                if txn in self._txns:
                    self._txns[txn][_FORCE_TIME] += self.sim.now - pending[0]
        if self._every_record or "log_durable" in self._heard:
            detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
            self._emit("log_durable", actor, detail, actor)

    def log_crash(self, actor: str, *, lost_jobs: int) -> None:
        if not self.enabled:
            return
        self._counts["log_crash"] += 1.0
        # Its pending forces will never be durable.
        self._forcing = {k: f for k, f in self._forcing.items() if k[0] != actor}
        if self._every_record or "log_crash" in self._heard:
            self._emit("log_crash", actor, {"lost_jobs": lost_jobs})

    def log_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self._counts["log_restart"] += 1.0
        if self._every_record or "log_restart" in self._heard:
            self._emit("log_restart", actor, {})

    def log_gc(self, actor: str, *, txn: int, removed: int) -> None:
        if not self.enabled:
            return
        self._counts["log_gc"] += removed
        if self._every_record or "log_gc" in self._heard:
            self._emit("log_gc", actor, {"txn": txn, "removed": removed})

    # -- locks ----------------------------------------------------------------
    #
    # A lock record's actor is its manager, ``locks:<node>``; it belongs
    # to that node's leg of a transaction owner (an ``int``), and an
    # owner that is not a transaction keeps it off the spans.

    def lock_grant(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        # ``mode`` arrives as the table's own ``LockMode`` (a ``str``) and
        # is unwrapped only for a record, like ``kind`` above.
        if not self.enabled:
            return
        self._counts["lock_grant"] += 1.0
        now = self.sim.now
        key = (manager, txn)
        if key in self._waits:
            if txn in self._txns:
                self._txns[txn][_LOCK_WAIT] += now - self._waits[key]
            del self._waits[key]
        locks = self._locks
        held = locks[manager] if manager in locks else locks.setdefault(manager, {})
        slot = held.get(obj)
        if slot is None:
            slot = held[obj] = [None, {}]
        slot[1][txn] = now
        if txn.__class__ is int:
            if slot[0] is not None and slot[0] != txn:
                self._edges.add((slot[0], txn))
            slot[0] = txn
        if self._every_record or "lock_grant" in self._heard:
            detail = {"txn": txn, "obj": obj, "mode": str(mode)}
            node = self._lock_nodes[manager] if txn.__class__ is int else None
            self._emit("lock_grant", manager, detail, node)

    def lock_upgrade(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._counts["lock_upgrade"] += 1.0
        if self._every_record or "lock_upgrade" in self._heard:
            self._emit("lock_upgrade", manager, {"txn": txn, "obj": obj})

    def lock_wait(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        if not self.enabled:
            return
        self._counts["lock_wait"] += 1.0
        if txn in self._txns:
            self._waits[(manager, txn)] = self.sim.now
        if self._every_record or "lock_wait" in self._heard:
            detail = {"txn": txn, "obj": obj, "mode": str(mode)}
            node = self._lock_nodes[manager] if txn.__class__ is int else None
            self._emit("lock_wait", manager, detail, node)

    def lock_timeout(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._counts["lock_timeout"] += 1.0
        key = (manager, txn)
        if key in self._waits:
            if txn in self._txns:
                self._txns[txn][_LOCK_WAIT] += self.sim.now - self._waits[key]
            del self._waits[key]
        if self._every_record or "lock_timeout" in self._heard:
            node = self._lock_nodes[manager] if txn.__class__ is int else None
            self._emit("lock_timeout", manager, {"txn": txn, "obj": obj}, node)

    def lock_release(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._counts["lock_release"] += 1.0
        if manager in self._locks:
            slot = self._locks[manager].get(obj)
            if slot is not None and txn in slot[1]:
                self._observe["locks.hold_time"](self.sim.now - slot[1][txn])
                del slot[1][txn]
        if self._every_record or "lock_release" in self._heard:
            node = self._lock_nodes[manager] if txn.__class__ is int else None
            self._emit("lock_release", manager, {"txn": txn, "obj": obj}, node)

    # -- nodes, fencing --------------------------------------------------------

    def node_crash(self, actor: str) -> None:
        if not self.enabled:
            return
        self._counts["crash"] += 1.0
        # Its lock table is gone, and with it chains, holds and waits.
        manager = f"locks:{actor}"
        self._locks.pop(manager, None)
        self._waits = {k: t for k, t in self._waits.items() if k[0] != manager}
        if self._every_record or "crash" in self._heard:
            self._emit("crash", actor, {}, actor)

    def node_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self._counts["restart"] += 1.0
        if self._every_record or "restart" in self._heard:
            self._emit("restart", actor, {}, actor)

    def node_recovered(self, actor: str) -> None:
        if not self.enabled:
            return
        self._counts["recovered"] += 1.0
        if self._every_record or "recovered" in self._heard:
            self._emit("recovered", actor, {})

    def fence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._counts["fence"] += 1.0
        if self._every_record or "fence" in self._heard:
            self._emit("fence", by, {"target": target}, by)

    def unfence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._counts["unfence"] += 1.0
        if self._every_record or "unfence" in self._heard:
            self._emit("unfence", by, {"target": target}, by)
