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
from repro.storage import (
    PersistentReservationDriver,
    ResourceFencingDriver,
    SharedStorage,
    StonithDriver,
)

FENCING_DRIVERS = ("stonith", "resource", "scsi")


class Cluster:
    """A simulated metadata-server cluster."""

    def __init__(
        self,
        *,
        protocol: str = "1PC",
        server_names: Sequence[str] = ("mds1", "mds2"),
        params: Optional[SimulationParams] = None,
        placement: Optional[PlacementPolicy] = None,
        fallback: Optional[str] = "PrN",
        fencing: str = "stonith",
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
        if fencing not in FENCING_DRIVERS:
            raise ValueError(f"unknown fencing driver {fencing!r}; have {FENCING_DRIVERS}")
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
        self.fencing_driver = self._make_fencing_driver(fencing)

        protocol_cls = spec.engine
        fallback_spec = None
        if protocol_cls.max_workers is not None and fallback:
            try:
                fallback_spec = get_spec(fallback)
            except KeyError:
                raise ValueError(f"unknown fallback protocol {fallback!r}") from None
        fallback_cls = fallback_spec.engine if fallback_spec is not None else None

        # Protocol-declared infrastructure: acceptor processes for
        # Paxos Commit, backup replicas for the logless 1PC.  The
        # fallback's needs are honoured too (it runs on the same
        # cluster).
        caps = set(spec.capabilities)
        if fallback_spec is not None:
            caps |= set(fallback_spec.capabilities)
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

    @classmethod
    def from_params(
        cls, params: SimulationParams, *, protocol: str = "1PC", **kwargs
    ) -> "Cluster":
        """Build a cluster from a :class:`SimulationParams` bundle.

        The facade entry point: ``Cluster.from_params(params,
        protocol="1PC", server_names=[...])``.  All remaining keyword
        arguments are forwarded to the constructor.
        """
        return cls(protocol=protocol, params=params, **kwargs)

    @property
    def spans(self):
        """The span collector (``repro.trace(cluster)`` facade target)."""
        return self.obs.spans

    @property
    def metrics(self):
        """The metrics registry (``repro.metrics(cluster)`` facade target)."""
        return self.obs.metrics

    def _make_fencing_driver(self, kind: str):
        delay = self.params.failure.fencing_delay
        if kind == "stonith":
            return StonithDriver(
                self.sim, self.storage.fencing, power_off=self._stonith_power_off, delay=delay
            )
        if kind == "resource":
            return ResourceFencingDriver(self.sim, self.storage.fencing, delay=delay)
        return PersistentReservationDriver(self.sim, self.storage.fencing, delay=delay)

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

    def backup_of(self, name: str) -> BackupReplica:
        """The backup replica of MDS ``name`` (logless protocols only)."""
        return self.backups[name]

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

    def committed_outcomes(self) -> list[TxnOutcome]:
        return [o for o in self.outcomes if o.committed]

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

    def unfence(self, name: str) -> None:
        self.storage.fencing.unfence(name, by="operator")

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def check_invariants(self) -> list[Violation]:
        """File-system invariants over all committed state (§II)."""
        return check_invariants(self._stores.values())

    def quiesce(self, limit: float = 60.0) -> None:
        """Run the simulation until the event schedule drains (or the
        virtual-time budget runs out — heartbeats never drain)."""
        self.sim.run(until=self.sim.now + limit if self.heartbeat_services else None)
