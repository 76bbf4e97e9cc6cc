"""The client / ``source`` module.

A :class:`Client` plans namespace operations against the cluster's
placement policy and submits them to the coordinator MDS (the server
responsible for the parent directory).  Completed operations land in
the cluster's outcome list (the ``leave`` module of ACID Sim Tools);
aborted operations can be resubmitted by the workload layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.fs.objects import FileType, ObjectId
from repro.fs.operations import (
    OpPlan,
    plan_create,
    plan_delete,
    plan_link,
    plan_mkdir,
    plan_rename,
    plan_rmdir,
    split_path,
)
from repro.protocols.base import MsgKind
from repro.sim import TIMED_OUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


class ClientTimeout(Exception):
    """No CLIENT_REPLY arrived within the client's patience."""


class Client:
    """A file-system client issuing namespace operations.

    ``name`` is keyword-only; positional spellings are a
    :class:`TypeError`.
    """

    def __init__(self, cluster: "Cluster", *, name: Optional[str] = None):
        self.cluster = cluster
        # Cluster-scoped naming keeps runs byte-for-byte reproducible.
        self.name = name or f"client{cluster.next_client_id()}"
        self.endpoint = cluster.network.attach(self.name)
        self._req_counter = 0

    # -- planning -----------------------------------------------------------

    def plan_create(self, path: str, ftype: FileType = FileType.FILE) -> OpPlan:
        return plan_create(path, self.cluster.placement, self.cluster.allocator, ftype)

    def plan_delete(self, path: str) -> OpPlan:
        ino = self.cluster.lookup(path)
        if ino is None:
            raise FileNotFoundError(path)
        return plan_delete(path, ino, self.cluster.placement)

    def plan_mkdir(self, path: str) -> OpPlan:
        return plan_mkdir(path, self.cluster.placement, self.cluster.allocator)

    def plan_rmdir(self, path: str) -> OpPlan:
        ino = self.cluster.lookup(path)
        if ino is None:
            raise FileNotFoundError(path)
        return plan_rmdir(path, ino, self.cluster.placement)

    def plan_link(self, target: str, link_path: str) -> OpPlan:
        ino = self.cluster.lookup(target)
        if ino is None:
            raise FileNotFoundError(target)
        return plan_link(target, link_path, ino, self.cluster.placement)

    def plan_rename(self, src: str, dst: str, touch_inode: bool = True) -> OpPlan:
        ino = self.cluster.lookup(src)
        if ino is None:
            raise FileNotFoundError(src)
        replaced = self.cluster.lookup(dst)
        return plan_rename(
            src,
            dst,
            ino,
            self.cluster.placement,
            replaced_ino=replaced,
            touch_inode=touch_inode,
        )

    # -- submission ----------------------------------------------------------

    def submit(self, plan: OpPlan) -> int:
        """Fire-and-forget submission to the plan's coordinator.

        Returns the request id echoed back in the CLIENT_REPLY, so
        repeated operations on the same path never match each other's
        (possibly stale, unconsumed) replies.
        """
        self._req_counter += 1
        req_id = self._req_counter
        self.endpoint.send_to(
            plan.coordinator,
            MsgKind.CLIENT_REQUEST,
            plan=plan,
            submitted_at=self.cluster.sim.now,
            req_id=req_id,
        )
        return req_id

    def run(self, plan: OpPlan, timeout: Optional[float] = None) -> Generator:
        """Generator: submit ``plan`` and wait for the reply.

        Returns the reply message payload (``committed`` etc.); raises
        :class:`ClientTimeout` if the coordinator never answers (e.g.
        it crashed before replying).
        """
        req_id = self.submit(plan)
        get = self.endpoint.receive(
            lambda m: m.kind == MsgKind.CLIENT_REPLY and m.payload.get("req_id") == req_id
        )
        if timeout is not None:
            self.cluster.sim.expire(get, timeout)
        msg = yield get
        if msg is TIMED_OUT:
            raise ClientTimeout(f"{self.name}: no reply for {plan.op} {plan.path}")
        return msg.payload

    def stat(self, path: str, timeout: Optional[float] = None) -> Generator:
        """Generator: metadata read of ``path`` at the directory's MDS.

        Returns the STAT_REPLY payload: ``found`` / ``ino`` (or
        ``error`` on a lock timeout).  The request carries a request id,
        as :meth:`submit`'s does, so the late reply to a timed-out stat
        never answers a later stat of the same path.
        """
        parent, _name = split_path(path)
        target = self.cluster.placement.place(ObjectId.directory(parent))
        self._req_counter += 1
        req_id = self._req_counter
        self.endpoint.send_to(target, MsgKind.STAT_REQUEST, path=path, req_id=req_id)
        get = self.endpoint.receive(
            lambda m: m.kind == MsgKind.STAT_REPLY and m.payload.get("req_id") == req_id
        )
        if timeout is not None:
            self.cluster.sim.expire(get, timeout)
        msg = yield get
        if msg is TIMED_OUT:
            raise ClientTimeout(f"{self.name}: no stat reply for {path}")
        return msg.payload

    def run_with_retries(
        self,
        plan_factory,
        max_retries: int = 3,
        timeout: Optional[float] = None,
        backoff: float = 0.0,
    ) -> Generator:
        """Generator: submit, resubmitting on abort (the paper's
        ``leave`` module behaviour: "aborted transactions can be
        resubmitted to the responsible source that reprocesses them").

        ``plan_factory`` is called before every attempt so the plan is
        rebuilt against current state (fresh inode numbers, current
        lookups).  Returns the last reply payload, augmented with an
        ``attempts`` count.
        """
        attempts = 0
        while True:
            attempts += 1
            result = yield from self.run(plan_factory(), timeout=timeout)
            if result.get("committed") or attempts > max_retries:
                return {**result, "attempts": attempts}
            if backoff > 0:
                yield self.cluster.sim.timeout(backoff)

    def create(self, path: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_create(path), timeout=timeout)
        return result

    def delete(self, path: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_delete(path), timeout=timeout)
        return result

    def link(self, target: str, link_path: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_link(target, link_path), timeout=timeout)
        return result

    def mkdir(self, path: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_mkdir(path), timeout=timeout)
        return result

    def rmdir(self, path: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_rmdir(path), timeout=timeout)
        return result

    def rename(self, src: str, dst: str, timeout: Optional[float] = None) -> Generator:
        result = yield from self.run(self.plan_rename(src, dst), timeout=timeout)
        return result
