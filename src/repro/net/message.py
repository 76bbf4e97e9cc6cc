"""Network message representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(slots=True)
class Message:
    """One network message between two nodes.

    ``kind`` is the protocol message type (``UPDATE_REQ``, ``PREPARE``,
    ``COMMIT``, ``HEARTBEAT``...).  ``txn_id`` ties protocol messages to
    a transaction; administrative traffic leaves it ``None``.

    ``msg_id`` is assigned by the network at transmission time (scoped
    to the network so that independent simulations produce identical
    traces).
    """

    src: str
    dst: str
    kind: str
    txn_id: Optional[int] = None
    payload: dict[str, Any] = field(default_factory=dict)
    #: Wire size in bytes (used only when the network has a byte cost).
    size: float = 256.0
    msg_id: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        txn = f" txn={self.txn_id}" if self.txn_id is not None else ""
        return f"<Message {self.kind} {self.src}->{self.dst}{txn}>"
