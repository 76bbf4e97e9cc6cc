"""Cluster assembly: the top-level simulation object.

A :class:`Cluster` owns the simulator, the network, the storage fabric,
the fencing driver, the servers and the clients, and exposes the fault
injection and verification entry points the tests and benchmarks use.

Typical use::

    cluster = Cluster(protocol="1PC", server_names=["mds1", "mds2"])
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()

    def scenario(sim):
        result = yield from client.create("/dir1/file0")
        assert result["committed"]

    cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run()
    assert cluster.check_invariants() == []

Constructor arguments are keyword-only; positional spellings (and the
pre-redesign ``trace_enabled=`` name) are a :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable, Optional, Sequence

import repro.core  # noqa: F401  (registers the 1PC protocol)
from repro.config import SimulationParams
from repro.fs import MetadataStore, ObjectId, Violation, check_invariants
from repro.fs.operations import InodeAllocator, split_path
from repro.fs.placement import HashPlacement, PinnedPlacement, PlacementPolicy
from repro.mds.acceptor import AcceptorNode
from repro.mds.client import Client
from repro.mds.heartbeat import FailureDetector, HeartbeatService
from repro.mds.replica import BackupReplica
from repro.mds.server import MDSServer
from repro.net import Network
from repro.obs import Observability
from repro.protocols.base import TxnOutcome
from repro.protocols.registry import (
    CAP_LOGLESS,
    CAP_NEEDS_ACCEPTORS,
    CAP_SHARED_LOG,
    get_spec,
)
from repro.sim import RngRegistry, Simulator
from repro.storage import SharedStorage, StonithDriver


class Cluster:
    """A simulated metadata-server cluster."""

    def __init__(
        self,
        *,
        protocol: str = "1PC",
        server_names: Sequence[str] = ("mds1", "mds2"),
        params: Optional[SimulationParams] = None,
        placement: Optional[PlacementPolicy] = None,
        heartbeats: bool = False,
        trace: str = "full",
        seed: Optional[int] = None,
        sim: Optional[Simulator] = None,
        outcome_sink: Optional[Callable[[TxnOutcome], None]] = None,
    ):
        try:
            spec = get_spec(protocol)
        except KeyError as exc:  # names the registered protocols
            raise ValueError(exc.args[0]) from None
        self.protocol_name = protocol
        self.params = params or SimulationParams.paper_defaults()
        if seed is not None:
            self.params = dataclasses.replace(self.params, seed=seed)
        # ``sim`` lets several *independent* clusters co-host on one
        # kernel (the shard groups of the composite workload); by
        # default each cluster owns its own.
        self.sim = sim if sim is not None else Simulator()
        #: When set, finished-transaction outcomes are routed here
        #: instead of accumulating on the ``outcomes`` list — the
        #: bounded-memory path for million-transaction workloads.
        self.outcome_sink = outcome_sink
        #: The observability hub, in mode ``trace`` (one of
        #: :data:`repro.obs.hub.MODES`; a ``bool`` is a TypeError).
        self.obs = Observability(self.sim, trace)
        self.trace = self.obs.trace
        self.rng = RngRegistry(self.params.seed)
        self.network = Network(self.sim, self.params.network, rng=self.rng, obs=self.obs)
        # Cluster topology is capability-driven: the protocol's spec
        # declares what infrastructure it runs on.  A shared-log
        # architecture keeps every log on central storage (the 1PC
        # design, §III); the 2PC family traditionally uses per-node
        # devices.  The device *model* is identical either way (see
        # StorageParams); shared storage additionally allows remote
        # log reads.
        self.storage = SharedStorage(
            self.sim,
            self.params.storage,
            shared_device=(CAP_SHARED_LOG in spec.capabilities),
            obs=self.obs,
        )
        self.failure_detector = FailureDetector(
            self.sim,
            self.params.failure.heartbeat_interval,
            self.params.failure.heartbeat_misses,
        )
        self.fencing_driver = StonithDriver(
            self.sim,
            self.storage.fencing,
            power_off=self._stonith_power_off,
            delay=self.params.failure.fencing_delay,
        )

        protocol_cls = spec.engine
        # A bounded engine (1PC: one worker) hands wider transactions
        # to PrN, which runs beside it on every server.
        fallback_cls = get_spec("PrN").engine if protocol_cls.max_workers is not None else None

        # Protocol-declared infrastructure: acceptor processes for
        # Paxos Commit, backup replicas for the logless 1PC (PrN, the
        # fallback, declares none).
        caps = spec.capabilities
        self.acceptors: dict[str, AcceptorNode] = {}
        if CAP_NEEDS_ACCEPTORS in caps:
            for i in range(1, getattr(protocol_cls, "n_acceptors", 3) + 1):
                name = f"acc{i}"
                self.acceptors[name] = AcceptorNode(self, name)
        self.backups: dict[str, BackupReplica] = {}
        if CAP_LOGLESS in caps:
            for name in server_names:
                self.backups[name] = BackupReplica(self, name)

        self._stores: dict[str, MetadataStore] = {}
        #: What :meth:`mkdir` provisioned outside transactions: path ->
        #: owning server (the start state of a serial replay).
        self.provisioned: dict[str, str] = {}
        self.servers: dict[str, MDSServer] = {}
        for name in server_names:
            self.servers[name] = MDSServer(self, name, protocol_cls, fallback_cls)

        if placement is None:
            # Pinnable-by-default so mkdir(owner=...) can direct the
            # placement (the Figure 6 workload pins its directory).
            placement = PinnedPlacement({}, HashPlacement(list(server_names)))
        self.placement: PlacementPolicy = placement
        self.allocator = InodeAllocator()
        self._txn_ids = itertools.count(1)
        self._client_ids = itertools.count(1)
        #: The "leave" module: every finished transaction's outcome.
        self.outcomes: list[TxnOutcome] = []
        #: The outcome count :meth:`run_until_answered` is waiting for.
        self._awaited: Optional[int] = None
        self.heartbeat_services: dict[str, HeartbeatService] = {}
        if heartbeats:
            for name in server_names:
                service = HeartbeatService(self, name)
                service.start()
                self.heartbeat_services[name] = service

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _stonith_power_off(self, target: str) -> None:
        """STONITH power-cycles the target: crash now, reboot later."""
        server = self.servers.get(target)
        if server is None or server.crashed:
            return
        server.crash()
        self._stop_heartbeat(target)
        self.sim.call_at(
            self.sim.now + self.params.failure.reboot_delay,
            lambda: self._reboot_if_down(target),
        )

    def _reboot_if_down(self, target: str) -> None:
        server = self.servers[target]
        if server.crashed:
            server.restart()
            self._start_heartbeat(target)

    def _stop_heartbeat(self, name: str) -> None:
        service = self.heartbeat_services.get(name)
        if service is not None:
            service.stop()

    def _start_heartbeat(self, name: str) -> None:
        service = self.heartbeat_services.get(name)
        if service is not None:
            service.start()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def store_of(self, name: str) -> MetadataStore:
        if name not in self._stores:
            self._stores[name] = MetadataStore(name)
        return self._stores[name]

    @property
    def acceptor_names(self) -> tuple[str, ...]:
        """The Paxos Commit acceptor nodes (empty for other protocols)."""
        return tuple(sorted(self.acceptors))

    def server_names(self) -> list[str]:
        return sorted(self.servers)

    def next_txn_id(self) -> int:
        return next(self._txn_ids)

    def next_client_id(self) -> int:
        return next(self._client_ids)

    def record_outcome(self, outcome: TxnOutcome) -> None:
        if self.outcome_sink is not None:
            self.outcome_sink(outcome)
        else:
            self.outcomes.append(outcome)
            if len(self.outcomes) == self._awaited:
                self.sim.stop()

    def run_until_answered(self, expected: int, budget: float) -> bool:
        """Run until ``expected`` outcomes were answered (the clock stays
        on the event that recorded the last one) or ``budget`` virtual
        seconds passed, schedule dry or not; says whether they were."""
        if len(self.outcomes) < expected:
            self._awaited = expected
            try:
                self.sim.run(until=self.sim.now + budget)
            finally:
                self._awaited = None
        return len(self.outcomes) >= expected

    def new_client(self, name: Optional[str] = None) -> Client:
        return Client(self, name=name)

    # ------------------------------------------------------------------
    # Namespace bootstrap and reads
    # ------------------------------------------------------------------

    def mkdir(self, path: str, owner: Optional[str] = None) -> str:
        """Provision a directory (outside any transaction).

        ``owner`` overrides the placement policy (useful to pin the
        Figure 6 workload's target directory).  Returns the owning
        server name.
        """
        node = owner or self.placement.place(ObjectId.directory(path))
        if node not in self.servers:
            raise KeyError(f"unknown server {node!r}")
        if owner is not None:
            if not hasattr(self.placement, "pin"):
                raise TypeError(
                    "mkdir(owner=...) requires a pinnable placement policy "
                    f"(got {type(self.placement).__name__})"
                )
            self.placement.pin(ObjectId.directory(path), owner)
        self.store_of(node).mkdir(path)
        self.provisioned[path] = node
        return node

    def lookup(self, path: str) -> Optional[int]:
        """Resolve ``path`` to an inode number via the parent's owner."""
        parent, name = split_path(path)
        node = self.placement.place(ObjectId.directory(parent))
        return self.store_of(node).lookup(parent, name)

    def listdir(self, path: str) -> dict[str, int]:
        node = self.placement.place(ObjectId.directory(path))
        return self.store_of(node).listdir(path)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash_server(self, name: str) -> None:
        self.servers[name].crash()
        self._stop_heartbeat(name)

    def restart_server(self, name: str, after: Optional[float] = None) -> None:
        """Restart a crashed server, optionally after a delay."""
        delay = self.params.failure.reboot_delay if after is None else after
        if delay <= 0:
            self.servers[name].restart()
            self._start_heartbeat(name)
        else:
            self.sim.call_at(self.sim.now + delay, lambda: self._reboot_if_down(name))

    def partition(self, *groups: Iterable[str]) -> None:
        self.network.partition(*groups)

    def heal_partition(self) -> None:
        self.network.heal_partition()

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def check_invariants(self) -> list[Violation]:
        """File-system invariants over all committed state (§II)."""
        return check_invariants(self._stores.values())
