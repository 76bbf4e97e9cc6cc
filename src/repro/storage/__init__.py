"""Stable storage substrate.

Three layers:

* :class:`~repro.storage.disk.Disk` -- a FIFO block device whose
  service time is derived from the configured bandwidth (the paper uses
  400 KB/s as the random-access-effective bandwidth of shared storage).
* :class:`~repro.storage.wal.WriteAheadLog` -- per-MDS write-ahead log
  with forced (synchronous) and lazy (asynchronous) appends, crash
  semantics (buffered records are lost, forced records survive),
  checkpointing and garbage collection.
* :class:`~repro.storage.shared.SharedStorage` -- the central SAN
  repository required by the 1PC protocol: one log partition per MDS,
  readable by every MDS, with fencing enforcement so a fenced node's
  writes are rejected (SCSI-3 persistent-reservation semantics).
"""

from repro.storage.disk import Disk
from repro.storage.fencing import (
    FencedError,
    FencingController,
    StonithDriver,
)
from repro.storage.records import LogRecord, RecordKind
from repro.storage.shared import SharedStorage
from repro.storage.wal import WriteAheadLog

__all__ = [
    "Disk",
    "FencedError",
    "FencingController",
    "LogRecord",
    "RecordKind",
    "SharedStorage",
    "StonithDriver",
    "WriteAheadLog",
]
