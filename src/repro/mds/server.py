"""One metadata server.

An :class:`MDSServer` bundles the paper's per-node modules — the acp
server, its lock manager and its log manager connection — around a
message router.  The node's endpoint serves arriving messages one at a
time (:meth:`Endpoint.serve`: ``msg_processing_latency`` each, heartbeats
free) and hands each to ``_route``; the server itself runs no process,
and neither does anything it starts — every one is a protocol session
on the step interpreter (:class:`repro.protocols.base.Session`):

* ``CLIENT_REQUEST`` starts a coordinator session (the protocol engine
  chosen for the cluster, or the fallback engine when the operation is
  wider than the primary protocol supports — e.g. a four-MDS RENAME
  under 1PC);
* ``STAT_REQUEST`` starts a read session;
* protocol messages are routed into per-transaction session inboxes;
  an ``UPDATE_REQ``/``PREPARE`` with no session opens a worker session;
* anything else goes to the protocol's stray-message handler.

Crash semantics: ``crash()`` kills every live session and flushes
volatile state (cache overlays, lock tables, queued messages and the
one in service, unflushed log records).  ``restart()`` brings the node
back: messages are served again at once, but new client requests are
buffered until reboot-time recovery has drained the log — the ordering
rule §III-D requires ("the coordinator will not execute new requests
... until it has completed all the outstanding ones").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.fs.objects import ObjectId
from repro.fs.operations import OpPlan, split_path
from repro.locks import LockManager, LockMode
from repro.net.message import Message
from repro.obs.hub import SPREAD, WORD
from repro.protocols.base import SESSION_OPENERS, MsgKind, Protocol, Session, Transaction
from repro.sim import TIMED_OUT, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


class MDSServer:
    """A metadata server node."""

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        protocol_cls: type[Protocol],
        fallback_cls: Optional[type[Protocol]] = None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.params = cluster.params
        self.obs = cluster.obs
        self.endpoint = cluster.network.attach(name)
        self.wal = cluster.storage.provision(name)
        self.locks = LockManager(self.sim, name=f"locks:{name}", obs=self.obs)
        self.store = cluster.store_of(name)
        #: Every session running here, in start order: what a crash kills.
        self._live: dict[Session, None] = {}
        self.protocol: Protocol = protocol_cls(self)
        #: Engine used when an operation exceeds the primary protocol's
        #: worker limit (wide RENAMEs under 1PC).
        self.fallback: Optional[Protocol] = fallback_cls(self) if fallback_cls else None
        #: Test hook: the next worker-side vote is refused.
        self.fail_next_vote = False
        self.crashed = False
        self.recovering = False
        self._sessions: dict[int, Store] = {}
        self._buffered_requests: list[Message] = []
        self.endpoint.serve(
            self._route,
            self.params.compute.msg_processing_latency,
            free=(MsgKind.HEARTBEAT,),
        )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def open_session(self, txn_id: int) -> Store:
        if txn_id not in self._sessions:
            self._sessions[txn_id] = Store(self.sim, name=f"session:{self.name}:{txn_id}")
        return self._sessions[txn_id]

    def session_inbox(self, txn_id: int) -> Optional[Store]:
        return self._sessions.get(txn_id)

    def close_session(self, txn_id: int) -> None:
        if self._sessions.pop(txn_id, None) is not None and "worker_close" in self.obs.hears:
            self.obs.worker_close(self.name, txn_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _route(self, msg: Message) -> None:
        if msg.kind == MsgKind.HEARTBEAT:
            self.cluster.failure_detector.observe(self.name, msg.src, self.sim.now)
            return
        if msg.kind == MsgKind.CLIENT_REQUEST:
            if self.recovering:
                self._buffered_requests.append(msg)
            else:
                self._start_coordinator(msg)
            return
        if msg.kind == MsgKind.STAT_REQUEST:
            stat = _StatRead(self.protocol)
            stat.start(stat.begin, msg)
            return
        inbox = self._sessions.get(msg.txn_id)
        if inbox is not None:
            inbox.put(msg)
            return
        engine = self._engine_for(msg)
        if msg.kind in SESSION_OPENERS:
            session = self.open_session(msg.txn_id)
            if "worker_open" in self.obs.hears:
                self.obs.worker_open(
                    self.name, msg.txn_id, opener=msg.kind, protocol=engine.name
                )
            engine.worker_session(msg, session)
            return
        engine.stray(msg)

    def _engine_for(self, msg: Message) -> Protocol:
        """Route worker-side traffic to the engine that speaks it.

        Only a bounded primary (``max_workers`` set) has a fallback, and
        it marks its UPDATE_REQ with its :attr:`Protocol.update_flag`
        (1PC ``commit=True``): a bare UPDATE_REQ or a PREPARE goes to
        the fallback engine.
        """
        if self.fallback is None:
            return self.protocol
        kind = msg.kind
        if kind == MsgKind.PREPARE or (
            kind == MsgKind.UPDATE_REQ and not msg.payload.get(self.protocol.update_flag)
        ):
            return self.fallback
        return self.protocol

    def _start_coordinator(self, msg: Message) -> None:
        plan: OpPlan = msg.payload["plan"]
        txn = Transaction(
            txn_id=self.cluster.next_txn_id(),
            plan=plan,
            client=msg.src,
            submitted_at=msg.payload.get("submitted_at", self.sim.now),
            req_id=msg.payload.get("req_id"),
        )
        engine = self.protocol
        if engine.max_workers is not None and len(plan.workers) > engine.max_workers:
            engine = self.fallback  # PrN, beside every bounded engine
            self.obs.txn_fallback(
                self.name, txn.txn_id, op=plan.op, workers=len(plan.workers)
            )
        if txn.txn_id * SPREAD & WORD < self.obs.sample_below or "txn_start" in self.obs.hears:
            self.obs.txn_start(
                self.name,
                txn.txn_id,
                op=plan.op,
                protocol=engine.name,
                submitted_at=txn.submitted_at,
                client=txn.client,
            )
        # Single-MDS operations need no commit protocol at all.  The
        # engine reports the outcome itself (``Protocol.outcome``).
        if plan.is_distributed:
            engine.coordinate(txn)
        else:
            engine.run_local(txn)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Hard failure: volatile state is gone, durable log survives."""
        if self.crashed:
            return
        self.crashed = True
        self.obs.node_crash(self.name)
        for session in list(self._live):
            session.kill()
        self._live.clear()
        self._sessions.clear()
        self._buffered_requests.clear()
        self.cluster.network.detach(self.name)
        self.wal.crash()
        self.store.crash()
        # The in-memory lock table vanishes with the node.
        self.locks = LockManager(self.sim, name=f"locks:{self.name}", obs=self.obs)
        self.protocol.locks = self.locks
        if self.fallback is not None:
            self.fallback.locks = self.locks

    def restart(self) -> None:
        """Reboot: reattach, restart the log, recover, then serve."""
        if not self.crashed:
            raise RuntimeError(f"{self.name} is not crashed")
        self.crashed = False
        self.recovering = True
        self.obs.node_restart(self.name)
        self.cluster.network.attach(self.name)
        self.wal.restart()
        # A rebooted node re-registers with the storage fabric.
        if self.cluster.storage.fencing.is_fenced(self.name):
            self.cluster.storage.fencing.unfence(self.name, by=self.name)
        reboot = _Reboot(self.protocol)
        reboot.start(reboot.begin)


class _StatRead(Session):
    """Metadata read: lookup under a shared directory lock.

    POSIX semantics ("a consistent view of the parent directory across
    multiple clients", §VI) make reads queue behind an in-flight
    exclusive holder — which is why the lock-hold time of the commit
    protocol matters for read latency too.
    """

    _held = False

    def begin(self, msg: Message) -> None:
        server = self.p.server
        self.msg, (self.parent, self.name) = msg, split_path(msg.payload["path"])
        self.reader, self.directory = ("stat", msg.msg_id), ObjectId.directory(self.parent)
        grant = server.locks.request(
            self.reader, self.directory, LockMode.SHARED, server.params.failure.lock_timeout
        )
        self.wait(grant, self._granted)

    def _granted(self, grant: Any) -> None:
        server = self.p.server
        if grant is not None and grant._value is TIMED_OUT:
            server.locks.withdraw(grant, self.directory)
            self.end()
            return self._reply(error="timeout")
        self._held = True
        self.wait(server.sim.timeout(server.params.compute.read_latency), self._read)

    def _read(self, _: Any) -> None:
        ino = self.p.server.store.lookup(self.parent, self.name)
        self.end()
        self._reply(found=ino is not None, ino=ino)

    def _reply(self, **result: Any) -> None:
        payload, src = self.msg.payload, self.msg.src
        self.p.server.endpoint.send_to(
            src, MsgKind.STAT_REPLY, path=payload["path"], req_id=payload.get("req_id"), **result
        )

    def close(self) -> None:  # the read lock, once held, goes with the node
        if self._held:
            self.p.server.locks.release_all(self.reader)


class _Reboot(Session):
    """Reboot-time recovery of both engines, then the requests it held
    back are served — also when a crash cuts it short."""

    def begin(self, _: Any) -> None:
        self.p.recover(self._recovered if self.p.server.fallback is None else self._primary)

    def _primary(self, _: Any) -> None:
        self.p.server.fallback.recover(self._recovered)

    def _recovered(self, _: Any) -> None:
        self.end()
        self.p.obs.node_recovered(self.p.me)

    def close(self) -> None:
        server = self.p.server
        server.recovering = False
        buffered, server._buffered_requests = server._buffered_requests, []
        for msg in buffered:
            server._start_coordinator(msg)
