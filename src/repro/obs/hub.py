"""The observability hub: one object every subsystem reports into.

:class:`Observability` owns the cluster's event stream and the two
views derived from it:

* ``trace`` — the :class:`~repro.sim.monitor.TraceLog`, an append-only
  list of :class:`~repro.sim.monitor.TraceRecord` (what golden traces,
  fault triggers and the utilisation folds read);
* ``spans`` — the :class:`~repro.obs.span.SpanCollector`, which groups
  *the same record objects* by transaction leg (what the Table-I
  accounting and the exporters fold);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  (counters bumped per record category, simulated-time histograms).

Subsystems call the typed hooks below (``msg_send``, ``log_append``,
``lock_grant``, ``txn_start``...) instead of writing trace strings.
Every hook early-outs when the hub is disabled, then makes one call to
:meth:`Observability._emit`, which allocates the record once and feeds
all three.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.obs.span import (
    PROTOCOL_MSG_KINDS,
    COORDINATOR,
    WORKER,
    ABORTED,
    COMMITTED,
    Span,
    SpanCollector,
)
from repro.obs.metrics import Counter, MetricsRegistry
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


def _lock_leg(manager: str, txn: Any) -> Optional[str]:
    """The node whose leg of ``txn`` owns a record of lock manager
    ``locks:<node>``; locks of non-transaction owners stay off the spans."""
    return manager.removeprefix("locks:") if isinstance(txn, int) else None


class Observability:
    """Injected instrumentation hub (see module docstring)."""

    def __init__(self, sim: "Simulator", enabled: bool = True) -> None:
        self.sim = sim
        #: The one switch: a disabled hub appends nothing, opens no span
        #: and counts nothing.
        self.enabled = enabled
        self.trace = TraceLog(sim, enabled=enabled)
        self.spans = SpanCollector(sim)
        #: The collector's leg table, which ``_emit`` files records by.
        self._route = self.spans.route
        self.metrics = MetricsRegistry()
        #: ``_COUNTERS`` key -> its counter (or None), bound at the key's
        #: first record: the registry lists only counters that were bumped.
        self._bound: dict[Any, Optional[Counter]] = {}
        #: Called with each record as it is appended; replaced, never
        #: mutated, so a listener may unsubscribe from inside its call.
        self.listeners: list[Callable[[TraceRecord], None]] = []
        #: (lock-manager name, txn, obj) -> grant time, for hold-time
        #: histograms.
        self._lock_grants: dict[tuple[str, Any, Any], float] = {}

    # -- the single write path ------------------------------------------------

    def _emit(
        self,
        category: str,
        actor: str,
        detail: dict[str, Any],
        txn: Optional[int] = None,
        node: Optional[str] = None,
        split: Optional[bool] = None,
        amount: float = 1.0,
    ) -> None:
        """Allocate one record and feed the stream, its span and its counter.

        ``(txn, node)`` is the span leg that owns the record, from the
        hook that holds both (no ``node`` keeps it off the spans);
        ``split`` selects the counter of a category that has two,
        ``amount`` is its step.
        """
        record = TraceRecord(self.sim.now, category, actor, detail)
        self.trace.records.append(record)
        for listener in self.listeners:
            listener(record)
        key = category if split is None else (category, split)
        try:
            counter = self._bound[key]
        except KeyError:
            name = _COUNTERS.get(key)
            counter = self._bound[key] = self.metrics.counter(name) if name else None
        if counter is not None:
            counter.value += amount
        if node is not None:
            # The leg at ``node``, else the root, else cluster scope
            # (``SpanCollector.begin`` keeps the table).
            events = self._route.get((txn, node))
            if events is None:
                events = self._route.get((txn, None), self.spans.cluster_events)
            events.append(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Call ``listener(record)`` for every record appended from now on."""
        self.listeners = self.listeners + [listener]

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        self.listeners = [known for known in self.listeners if known != listener]

    def annotate(self, category: str, actor: str, **detail: Any) -> None:
        """Generic event of any category (protocol milestones, faults,
        device traffic); one naming a ``txn`` also lands on its span."""
        if not self.enabled:
            return
        txn = detail.get("txn")
        self._emit(category, actor, detail, txn, actor if txn is not None else None)

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
        self._emit("fallback_protocol", actor, detail, txn, actor)

    def worker_open(self, actor: str, txn: int, *, opener: str, protocol: str = "") -> None:
        """A worker session opened for a remote transaction (span only —
        the stream has no record for this)."""
        if not self.enabled:
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
        if not self.enabled:
            return
        leg = self.spans.leg_of(txn, actor)
        if leg is not None:
            root = self.spans.span_of(txn)
            status = root.status if root is not None and root.closed else "closed"
            self.spans.close(leg, status)

    def client_reply(self, actor: str, txn: int, *, committed: bool, op: str) -> None:
        if not self.enabled:
            return
        detail = {"txn": txn, "committed": committed, "op": op}
        self._emit("client_reply", actor, detail, txn, actor)
        root = self.spans.span_of(txn)
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
        span and fold its per-transaction metrics."""
        if not self.enabled:
            return
        self._emit(
            "txn_done",
            actor,
            {"txn": txn, "committed": committed, "op": op, "latency": latency},
            split=committed,
        )
        self.metrics.histogram("txn.client_latency").observe(latency)
        root = self.spans.span_of(txn)
        if root is not None:
            self.spans.close(
                root,
                COMMITTED if committed else ABORTED,
                replied_at=replied_at,
                reason=reason,
            )
            self._fold_span_metrics(root)

    def _fold_span_metrics(self, root: Span) -> None:
        """Per-transaction histograms derived from the closed span."""
        forced = 0
        messages = 0
        # ``log_append`` and ``msg_send`` details always carry ``sync`` /
        # ``kind`` (see their hooks below).
        for event in root.iter_events():
            category = event.category
            if category == "log_append":
                if event.detail["sync"]:
                    forced += 1
            elif category == "msg_send" and event.detail["kind"] in PROTOCOL_MSG_KINDS:
                messages += 1
        self.metrics.histogram("txn.forced_writes").observe(float(forced))
        self.metrics.histogram("txn.messages").observe(float(messages))

    # -- network -------------------------------------------------------------

    def msg_send(
        self, actor: str, *, kind: str, dst: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": kind, "dst": dst, "txn": txn, "msg_id": msg_id}
        self._emit("msg_send", actor, detail, txn, actor)

    def msg_recv(
        self, actor: str, *, kind: str, src: str, txn: Optional[int], msg_id: int
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": kind, "src": src, "txn": txn, "msg_id": msg_id}
        self._emit("msg_recv", actor, detail, txn, actor)

    def msg_drop(self, actor: str, *, reason: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        txn = detail.get("txn")
        self._emit("msg_drop", actor, {"reason": reason, "kind": kind, **detail}, txn, actor)

    # -- write-ahead log ------------------------------------------------------

    def log_append(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        # ``kind`` arrives as the log's own ``RecordKind`` and becomes a
        # ``str`` here, after the early-out: a disabled hub formats nothing.
        if not self.enabled:
            return
        detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
        self._emit("log_append", actor, detail, txn, actor, split=sync)

    def log_durable(
        self, actor: str, *, kind: Any, txn: Optional[int], sync: bool, nbytes: float
    ) -> None:
        if not self.enabled:
            return
        detail = {"kind": str(kind), "txn": txn, "sync": sync, "nbytes": nbytes}
        self._emit("log_durable", actor, detail, txn, actor)

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
        self._emit("log_gc", actor, {"txn": txn, "removed": removed}, amount=removed)

    # -- locks ----------------------------------------------------------------

    def lock_grant(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        # ``mode`` arrives as the table's own ``LockMode`` (a ``str``) and
        # is unwrapped after the early-out, like ``kind`` above.
        if not self.enabled:
            return
        detail = {"txn": txn, "obj": obj, "mode": str(mode)}
        self._emit("lock_grant", manager, detail, txn, _lock_leg(manager, txn))
        self._lock_grants[(manager, txn, obj)] = self.sim.now

    def lock_upgrade(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._emit("lock_upgrade", manager, {"txn": txn, "obj": obj})

    def lock_wait(self, manager: str, *, txn: Any, obj: Any, mode: str) -> None:
        if not self.enabled:
            return
        detail = {"txn": txn, "obj": obj, "mode": str(mode)}
        self._emit("lock_wait", manager, detail, txn, _lock_leg(manager, txn))

    def lock_timeout(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._emit("lock_timeout", manager, {"txn": txn, "obj": obj}, txn, _lock_leg(manager, txn))

    def lock_release(self, manager: str, *, txn: Any, obj: Any) -> None:
        if not self.enabled:
            return
        self._emit("lock_release", manager, {"txn": txn, "obj": obj}, txn, _lock_leg(manager, txn))
        granted = self._lock_grants.pop((manager, txn, obj), None)
        if granted is not None:
            self.metrics.histogram("locks.hold_time").observe(self.sim.now - granted)

    # -- nodes, fencing --------------------------------------------------------

    def node_crash(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("crash", actor, {}, None, actor)
        # Its lock table is gone and no release will name what it held:
        # the hold-time shadow of those grants goes with it.
        held = f"locks:{actor}"
        self._lock_grants = {k: t for k, t in self._lock_grants.items() if k[0] != held}

    def node_restart(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("restart", actor, {}, None, actor)

    def node_recovered(self, actor: str) -> None:
        if not self.enabled:
            return
        self._emit("recovered", actor, {})

    def fence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._emit("fence", by, {"target": target}, None, by)

    def unfence(self, by: str, *, target: str) -> None:
        if not self.enabled:
            return
        self._emit("unfence", by, {"target": target}, None, by)
