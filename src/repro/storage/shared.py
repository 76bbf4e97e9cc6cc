"""Central shared storage (the 1PC architectural requirement, §III-A).

Every MDS keeps its write-ahead log in a separate partition of one
central storage device reachable by every other MDS.  This class owns
the device(s), the per-MDS log partitions, and the fencing controller,
and provides the remote-read path a 1PC coordinator uses to inspect a
failed worker's log.

Two layouts are supported:

* ``shared_device=True`` (the 1PC architecture): one physical device;
  all partitions queue on it.
* ``shared_device=False`` (the 2PC-family architecture): one device per
  MDS; logs do not contend with each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.config import StorageParams
from repro.sim import Simulator
from repro.storage.disk import Disk
from repro.storage.fencing import FencedError, FencingController
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class SharedStorage:
    """The cluster's stable-storage fabric."""

    def __init__(
        self,
        sim: Simulator,
        params: StorageParams | None = None,
        shared_device: bool = True,
        obs: "Observability | None" = None,
    ):
        from repro.obs.hub import Observability

        self.sim = sim
        self.params = params or StorageParams()
        self.shared_device = shared_device
        self.obs = obs if obs is not None else Observability(sim, "off")
        self.fencing = FencingController(obs=self.obs)
        self._logs: dict[str, WriteAheadLog] = {}
        self._disks: dict[str, Disk] = {}
        self._shared_disk: Optional[Disk] = None
        # A SAN array with ``san_concurrency == 0`` stripes each log
        # partition onto its own spindle set: partitions are mutually
        # *reachable* (the 1PC requirement) but do not contend.  A
        # positive value models one device with that many service
        # channels.
        if shared_device and self.params.san_concurrency > 0:
            self._shared_disk = Disk(
                sim,
                self.params,
                name="san",
                obs=self.obs,
                capacity=self.params.san_concurrency,
            )

    # -- provisioning -----------------------------------------------------------

    def provision(self, node: str) -> WriteAheadLog:
        """Create (or return) the log partition for ``node``."""
        if node in self._logs:
            return self._logs[node]
        if self._shared_disk is not None:
            disk = self._shared_disk
        else:
            disk = Disk(self.sim, self.params, name=f"disk:{node}", obs=self.obs)
            self._disks[node] = disk
        log = WriteAheadLog(
            self.sim,
            disk,
            owner=node,
            obs=self.obs,
            fencing=self.fencing,
            group_commit=self.params.group_commit,
            group_commit_max_bytes=self.params.group_commit_max_bytes,
        )
        self._logs[node] = log
        return log

    def log_of(self, node: str) -> WriteAheadLog:
        if node not in self._logs:
            raise KeyError(f"no log partition for {node!r}")
        return self._logs[node]

    def disk_of(self, node: str) -> Disk:
        if self._shared_disk is not None:
            return self._shared_disk
        return self._disks[node]

    def nodes(self) -> list[str]:
        return sorted(self._logs)

    # -- remote read (the heart of the 1PC recovery) ---------------------------------

    def read_remote_log(
        self, reader: str, owner: str, require_fenced: bool = True
    ) -> Generator:
        """Generator: ``reader`` mounts and reads ``owner``'s partition.

        The paper requires the owner to be fenced before anyone else
        reads its log (otherwise a network partition could let both
        nodes access the log concurrently — the split-brain hazard).
        ``require_fenced=True`` enforces that discipline; tests use
        ``False`` to demonstrate the hazard.

        Returns a tuple of the owner's durable records.
        """
        if reader == owner:
            raise ValueError("read_remote_log is for reading someone else's partition")
        log = self.log_of(owner)
        if require_fenced and not self.fencing.is_fenced(owner):
            raise FencedError(
                f"{reader} may not read {owner}'s log: {owner} is not fenced"
            )
        self.obs.annotate("remote_log_read", reader, owner=owner)
        records = yield from log.read(actor=reader)
        return records

    # -- convenience for crash injection ----------------------------------------------

    def crash_node_log(self, node: str) -> None:
        self.log_of(node).crash()

    def restart_node_log(self, node: str) -> None:
        self.log_of(node).restart()
