"""Per-MDS write-ahead log.

Semantics modelled after §II-A of the paper:

* **Forced (synchronous) appends** -- the caller waits until the record
  is durable on the backing device.  Used for WAL data and protocol
  state records on the commit critical path.
* **Lazy (asynchronous) appends** -- the record is buffered and flushed
  in the background; the caller continues immediately.  The flush still
  occupies the device, so lazy writes consume bandwidth even though
  they are off the caller's critical path (this is what lets the 1PC
  coordinator commit "asynchronously from the point of view of the
  client" while the device cost remains real).
* **Log order** is preserved: a forced append also makes every earlier
  buffered record durable first.
* **Crash semantics** -- buffered and in-flight records are lost;
  durable records survive.  ``crash()``/``restart()`` model this.
* **Checkpoint / GC** -- once a transaction has ENDED (or the protocol
  allows it), its records can be garbage collected.

There is no flusher process: an append to an idle log schedules the
*pump* one zero-delay hop later, ``_pump`` hands the next batch to
:meth:`Disk.submit_write`, and ``_written`` marks it durable and pumps
again while appends are queued.  A device write costs its service
timer plus the ``flush`` completion the caller waits on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.sim import Event, Simulator
from repro.sim.events import PENDING
from repro.storage.disk import Disk
from repro.storage.fencing import FencedError, FencingController
from repro.storage.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class _FlushJob:
    """One pending append: records plus a completion event."""

    __slots__ = ("records", "done", "sync", "nbytes")

    def __init__(self, sim: Simulator, records: list[LogRecord], sync: bool, nbytes: float):
        self.records = records
        self.done = Event(sim, name="flush")
        self.sync = sync
        #: Per-job byte total: the record sizes added left to right from 0.
        self.nbytes = nbytes


class WriteAheadLog:
    """A single MDS's write-ahead log on a (possibly shared) device."""

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        owner: str,
        fencing: FencingController | None = None,
        group_commit: bool = False,
        group_commit_max_bytes: float = 64 * 1024.0,
        obs: "Observability | None" = None,
    ):
        from repro.obs.hub import Observability

        self.sim = sim
        self.disk = disk
        self.owner = owner
        self.obs = obs if obs is not None else Observability(sim, "off")
        #: The controller's live set of fenced nodes: the write path
        #: reads state, it does not call for it.
        self._fenced = fencing.fenced if fencing is not None else frozenset()
        #: Group commit: the pump coalesces every queued append (up
        #: to ``group_commit_max_bytes``) into one device write, so
        #: concurrent forces share a single rotation instead of
        #: queueing one write each.
        self.group_commit = group_commit
        self.group_commit_max_bytes = group_commit_max_bytes
        #: Durable records, in log order.
        self._durable: list[LogRecord] = []
        self._queue: deque[_FlushJob] = deque()
        #: True while a pump kick or a write is in flight (an append
        #: starts the pump only when it finds this False), and from
        #: ``crash()`` to ``restart()``, when nothing reaches the device.
        self._pumping = False
        #: Bumped by ``crash()``/``restart()``: a kick or a completed
        #: write from before belongs to a log that is gone.
        self._generation = 0
        self._lsn = 0
        #: Counts for statistics / Table I measurement.
        self.forced_appends = 0
        self.lazy_appends = 0

    # -- write path ----------------------------------------------------------

    def force(self, *records: LogRecord) -> Event:
        """Durably append ``records``: returns the flush event, which the
        caller yields (``yield wal.force(rec)``) to resume once durable.

        Earlier buffered lazy records are flushed first (log order).  The
        event fails with :class:`LogLostError` when a crash loses the job
        and with :class:`FencedError` when the log is fenced before the
        write reaches the device; a log fenced already refuses here.
        """
        if self.owner in self._fenced:
            raise FencedError(f"{self.owner} is fenced; write rejected")
        if not records:
            raise ValueError("force() requires at least one record")
        self.forced_appends += 1
        return self._enqueue(list(records), sync=True).done

    def append_lazy(self, *records: LogRecord) -> Event:
        """Buffer ``records``; flushed in the background.

        Returns the flush-completion event (callers normally ignore it;
        tests and the checkpointer use it).
        """
        if self.owner in self._fenced:
            raise FencedError(f"{self.owner} is fenced; write rejected")
        if not records:
            raise ValueError("append_lazy() requires at least one record")
        self.lazy_appends += 1
        job = self._enqueue(list(records), sync=False)
        # Nobody is obliged to observe a lazy flush failure.
        job.done.defused = True
        return job.done

    def _enqueue(self, records: list[LogRecord], sync: bool) -> _FlushJob:
        nbytes = 0
        for record in records:
            nbytes += record.size
            if record.lsn == 0:
                self._lsn += 1
                object.__setattr__(record, "lsn", self._lsn)
        job = _FlushJob(self.sim, records, sync, nbytes)
        self._queue.append(job)
        obs = self.obs
        for record in records:
            if record.txn_id in obs.sampled or "log_append" in obs.hears:
                obs.log_append(
                    self.owner, kind=record.kind, txn=record.txn_id, sync=sync, nbytes=record.size
                )
        # Start an idle pump, one zero-delay hop from now: the rest of a
        # same-instant burst queues before the batch is cut (what group
        # commit coalesces), and the fence check and device request fall
        # at one point of the instant with or without group commit.
        if not self._pumping:
            self._pumping = True
            self.sim.after(0.0, self._pump, self._generation)
        return job

    # -- background pump ----------------------------------------------------------

    def _next_batch(self) -> list[_FlushJob]:
        """The jobs the next group-commit device write covers."""
        batch: list[_FlushJob] = []
        total = 0.0
        for job in self._queue:
            nbytes = job.nbytes
            if batch and total + nbytes > self.group_commit_max_bytes:
                break
            batch.append(job)
            total += nbytes
        return batch

    def _pump(self, generation: Optional[int] = None) -> None:
        """Put the next batch on the device, or go idle.  Runs as the
        kick timer's callback (with the generation that armed it) and
        straight from :meth:`_written`, so a log has one write in
        flight at a time."""
        if generation is not None and generation != self._generation:
            return
        while self._queue:
            batch = self._next_batch() if self.group_commit else [self._queue[0]]
            if self.owner in self._fenced:
                # Fenced mid-stream: the write never reaches the device.
                exc = FencedError(f"{self.owner} is fenced; write rejected")
                for job in batch:
                    if self._queue and self._queue[0] is job:
                        self._queue.popleft()
                    if job.done._state == PENDING:
                        job.done.fail(exc)
                        if not job.sync:
                            job.done.defused = True
                continue
            if len(batch) == 1:
                nbytes = batch[0].nbytes
            else:
                # NOTE: this flattened sum must not be replaced by
                # ``sum(job.nbytes for job in batch)`` — float addition
                # is non-associative, and regrouping per job would
                # perturb device write times (and thus every golden
                # trace).
                nbytes = sum(r.size for job in batch for r in job.records)
            self.disk.submit_write(nbytes, self.owner, self._written, batch, self._generation)
            return
        self._pumping = False

    def _written(self, batch: list[_FlushJob], generation: int) -> None:
        if generation != self._generation:
            # Crashed while the write was in flight: data lost.
            return
        obs = self.obs
        for job in batch:
            self._queue.popleft()
            self._durable.extend(job.records)
            owner, sync = self.owner, job.sync
            for record in job.records:
                if record.txn_id in obs.sampled or "log_durable" in obs.hears:
                    obs.log_durable(
                        owner, kind=record.kind, txn=record.txn_id, sync=sync, nbytes=record.size
                    )
            if job.done._state == PENDING:
                job.done.succeed()
        self._pump()

    # -- crash / restart -----------------------------------------------------------

    def crash(self) -> None:
        """Lose all buffered and in-flight records; keep durable ones."""
        self._generation += 1
        lost = list(self._queue)
        self._queue.clear()
        for job in lost:
            if job.done._state == PENDING:
                job.done.fail(LogLostError(f"{self.owner} crashed before flush"))
                job.done.defused = True
        self._pumping = True  # held until restart()
        self.obs.log_crash(self.owner, lost_jobs=len(lost))

    def restart(self) -> None:
        """Let the pump run again after a crash (log content unchanged)."""
        self._generation += 1
        self._pumping = False
        if self._queue:  # appended while down: pump them, as an append would
            self._pumping = True
            self.sim.after(0.0, self._pump, self._generation)
        self.obs.log_restart(self.owner)

    # -- read path -------------------------------------------------------------------

    @property
    def durable_records(self) -> tuple[LogRecord, ...]:
        """Snapshot of durable records (no device time; local memory of
        what was written — used by tests and local recovery, which in a
        real system would read the log once at reboot)."""
        return tuple(self._durable)

    def records_for(self, txn_id: int) -> list[LogRecord]:
        return [r for r in self._durable if r.txn_id == txn_id]

    def has(self, kind: RecordKind, txn_id: int) -> bool:
        return any(r.kind == kind for r in self.records_for(txn_id))

    def last_state(self, txn_id: int) -> Optional[RecordKind]:
        """The most recent protocol *state* record for ``txn_id``."""
        states = {
            RecordKind.STARTED,
            RecordKind.PREPARED,
            RecordKind.COMMITTED,
            RecordKind.ABORTED,
            RecordKind.ENDED,
        }
        for record in reversed(self._durable):
            if record.txn_id == txn_id and record.kind in states:
                return record.kind
        return None

    def open_transactions(self) -> list[int]:
        """Transactions with records but no ENDED marker, oldest first."""
        seen: dict[int, bool] = {}
        for record in self._durable:
            if record.txn_id is None:
                continue
            seen.setdefault(record.txn_id, False)
            if record.kind == RecordKind.ENDED:
                seen[record.txn_id] = True
        return [txn for txn, ended in seen.items() if not ended]

    def read(self, actor: str = "?") -> Generator:
        """Generator: read the full log from the device (takes time)."""
        nbytes = sum(r.size for r in self._durable) or 1.0
        yield from self.disk.read(nbytes, actor=actor)
        return tuple(self._durable)

    # -- checkpoint / GC ------------------------------------------------------------------

    def checkpoint(self, txn_id: int) -> None:
        """Garbage-collect every record belonging to ``txn_id``."""
        before = len(self._durable)
        self._durable = [r for r in self._durable if r.txn_id != txn_id]
        if len(self._durable) != before and (
            txn_id in self.obs.sampled or "log_gc" in self.obs.hears
        ):
            self.obs.log_gc(self.owner, txn=txn_id, removed=before - len(self._durable))

    def size_bytes(self) -> float:
        return sum(r.size for r in self._durable)


class LogLostError(Exception):
    """A buffered record was lost in a crash before reaching the device."""
