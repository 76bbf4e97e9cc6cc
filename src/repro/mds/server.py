"""One metadata server.

An :class:`MDSServer` bundles the paper's per-node modules — the acp
server, its lock manager and its log manager connection — around a
message router.  The node's endpoint serves arriving messages one at a
time (:meth:`Endpoint.serve`: ``msg_processing_latency`` each, heartbeats
free) and hands each to ``_route``; the server itself runs no process:

* ``CLIENT_REQUEST`` spawns a coordinator process (the protocol engine
  chosen for the cluster, or the fallback engine when the operation is
  wider than the primary protocol supports — e.g. a four-MDS RENAME
  under 1PC);
* protocol messages are routed into per-transaction session inboxes;
  an ``UPDATE_REQ``/``PREPARE`` with no session opens a worker session;
* anything else goes to the protocol's stray-message handler.

Crash semantics: ``crash()`` kills every protocol process and flushes
volatile state (cache overlays, lock tables, queued messages and the
one in service, unflushed log records).  ``restart()`` brings the node
back: messages are served again at once, but new client requests are
buffered until reboot-time recovery has drained the log — the ordering
rule §III-D requires ("the coordinator will not execute new requests
... until it has completed all the outstanding ones").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.fs.objects import ObjectId
from repro.fs.operations import OpPlan, split_path
from repro.locks import LockManager, LockMode, LockTimeout
from repro.net.message import Message
from repro.protocols.base import SESSION_OPENERS, MsgKind, Protocol, Transaction
from repro.sim import Process, Store

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
        self.protocol: Protocol = protocol_cls(self)
        #: Engine used when an operation exceeds the primary protocol's
        #: worker limit (wide RENAMEs under 1PC).
        self.fallback: Optional[Protocol] = fallback_cls(self) if fallback_cls else None
        #: Test hook: the next worker-side vote is refused.
        self.fail_next_vote = False
        self.crashed = False
        self.recovering = False
        self._sessions: dict[int, Store] = {}
        self._procs: set[Process] = set()
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
        if self._sessions.pop(txn_id, None) is not None and self.obs.enabled:
            self.obs.worker_close(self.name, txn_id)

    # ------------------------------------------------------------------
    # Process tracking (so a crash can kill everything at this node)
    # ------------------------------------------------------------------

    def spawn(self, generator, name: str = "") -> Process:
        proc = self.sim.process(generator, name=name or f"{self.name}:proc")
        self._procs.add(proc)
        # A process is its own completion event, and this its first
        # callback; ``_procs`` is never replaced.
        proc._callbacks = [self._procs.discard]
        return proc

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
            self.spawn(self._serve_stat(msg), name=f"stat:{self.name}")
            return
        inbox = self._sessions.get(msg.txn_id)
        if inbox is not None:
            inbox.put(msg)
            return
        engine = self._engine_for(msg)
        if msg.kind in SESSION_OPENERS:
            session = self.open_session(msg.txn_id)
            if self.obs.enabled:
                self.obs.worker_open(
                    self.name, msg.txn_id, opener=msg.kind, protocol=engine.name
                )
            self.spawn(
                engine.worker_session(msg, session),
                name=f"worker:{self.name}:{msg.txn_id}",
            )
            return
        handler = engine.handle_stray(msg)
        if handler is not None:
            self.spawn(handler, name=f"stray:{self.name}:{msg.kind}:{msg.txn_id}")

    def _engine_for(self, msg: Message) -> Protocol:
        """Route worker-side traffic to the engine that speaks it.

        Each engine declares which worker-side messages it speaks via
        :meth:`Protocol.claims_worker_message` (e.g. the 1PC engine
        marks its UPDATE_REQ with ``commit=True`` and disowns bare
        PREPAREs); disowned traffic goes to the fallback engine when
        one is configured.
        """
        if self.fallback is None:
            return self.protocol
        if not self.protocol.claims_worker_message(msg):
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
        if (
            engine.max_workers is not None
            and len(plan.workers) > engine.max_workers
            and self.fallback is not None
        ):
            engine = self.fallback
            self.obs.txn_fallback(
                self.name, txn.txn_id, op=plan.op, workers=len(plan.workers)
            )
        if self.obs.enabled:
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
        body = engine.coordinate(txn) if plan.is_distributed else engine.run_local(txn)
        self.spawn(body, name=f"coord:{self.name}:{txn.txn_id}")

    def _serve_stat(self, msg: Message) -> Generator:
        """Metadata read: lookup under a shared directory lock.

        POSIX semantics ("a consistent view of the parent directory
        across multiple clients", §VI) make reads queue behind an
        in-flight exclusive holder — which is why the lock-hold time of
        the commit protocol matters for read latency too.
        """
        path, req_id = msg.payload["path"], msg.payload.get("req_id")
        parent, name = split_path(path)
        reader = ("stat", msg.msg_id)
        try:
            yield from self.locks.acquire(
                reader,
                ObjectId.directory(parent),
                LockMode.SHARED,
                timeout=self.params.failure.lock_timeout,
            )
        except LockTimeout:
            self.endpoint.send_to(
                msg.src, MsgKind.STAT_REPLY, path=path, req_id=req_id, error="timeout"
            )
            return
        try:
            yield self.sim.timeout(self.params.compute.read_latency)
            ino = self.store.lookup(parent, name)
        finally:
            self.locks.release_all(reader)
        self.endpoint.send_to(
            msg.src,
            MsgKind.STAT_REPLY,
            path=path,
            req_id=req_id,
            found=ino is not None,
            ino=ino,
        )

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Hard failure: volatile state is gone, durable log survives."""
        if self.crashed:
            return
        self.crashed = True
        self.obs.node_crash(self.name)
        for proc in list(self._procs):
            proc.kill()
        self._procs.clear()
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
        self.spawn(self._recover_then_serve(), name=f"recovery:{self.name}")

    def _recover_then_serve(self) -> Generator:
        try:
            yield from self.protocol.recover()
            if self.fallback is not None:
                yield from self.fallback.recover()
        finally:
            self.recovering = False
            buffered, self._buffered_requests = self._buffered_requests, []
            for msg in buffered:
                self._start_coordinator(msg)
        self.obs.node_recovered(self.name)
