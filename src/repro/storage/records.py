"""Write-ahead-log record types.

The record kinds mirror the protocol descriptions in §II and §III of
the paper.  ``REDO`` is specific to the 1PC protocol: the coordinator
logs a redo record for the requested namespace operation together with
STARTED so it can re-execute the transaction after a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class RecordKind(str, Enum):
    """Protocol state records written to the WAL."""

    STARTED = "STARTED"
    PREPARED = "PREPARED"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"
    ENDED = "ENDED"
    #: Metadata updates forced to the log (write-ahead data, not state).
    UPDATES = "UPDATES"
    #: 1PC redo record: the namespace operation to re-execute on reboot.
    REDO = "REDO"
    #: Paxos Commit acceptor ballot: one participant's vote accepted
    #: into that participant's consensus instance.
    BALLOT = "BALLOT"

    #: ``str(kind)`` is the bare value, as ``enum.StrEnum`` spells it:
    #: what the hub's log hooks record.
    __str__ = str.__str__


@dataclass(frozen=True)
class LogRecord:
    """One durable (or to-be-durable) log entry.

    ``lsn`` is assigned by the owning write-ahead log when the record
    is appended (log-scoped, so independent simulations produce
    identical sequences).
    """

    kind: RecordKind
    txn_id: Optional[int]
    size: float
    payload: dict[str, Any] = field(default_factory=dict)
    #: Log sequence number within the owning WAL (0 until appended).
    lsn: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogRecord {self.kind} txn={self.txn_id} lsn={self.lsn}>"
