"""Atomic commitment protocols.

* :mod:`repro.protocols.base` -- transaction objects, message kinds,
  the per-server protocol engine interface and shared machinery
  (locking, update execution, log-record construction).
* :mod:`repro.protocols.registry` -- the plug-in registry: every
  protocol registers a :class:`ProtocolSpec` and every harness grid
  enumerates the registry (see :func:`default_protocols`).
* :mod:`repro.protocols.prn` -- the baseline two phase commit
  ("Presume Nothing", §II-A).
* :mod:`repro.protocols.prc` -- the Presume Commit optimisation
  (§II-D).
* :mod:`repro.protocols.ep` -- the Early Prepare optimisation (§II-E).
* :mod:`repro.protocols.pra` -- Presumed Abort (extension).
* :mod:`repro.protocols.paxos` -- Paxos Commit (Gray & Lamport,
  extension): 2F+1 acceptors make the commit decision fault tolerant.
* :mod:`repro.protocols.lgl` -- logless one-phase commit (Zhu et al.,
  extension): synchronous replication to backup replicas replaces the
  write-ahead log entirely.

The paper's contribution, the One Phase Commit protocol, lives in
:mod:`repro.core` and registers itself under the name ``"1PC"``.
"""

from repro.protocols.base import (
    MsgKind,
    Protocol,
    Transaction,
    TxnOutcome,
    register_protocol,
)
from repro.protocols.ep import EarlyPrepareProtocol
from repro.protocols.lgl import LoglessOnePhaseProtocol
from repro.protocols.paxos import PaxosCommitProtocol
from repro.protocols.pra import PresumedAbortProtocol
from repro.protocols.prc import PresumeCommitProtocol
from repro.protocols.prn import PresumeNothingProtocol
from repro.protocols.registry import (
    CAP_LOGLESS,
    CAP_NEEDS_ACCEPTORS,
    CAP_SHARED_LOG,
    ProtocolSpec,
    default_protocols,
    get_spec,
    specs,
)

__all__ = [
    "CAP_LOGLESS",
    "CAP_NEEDS_ACCEPTORS",
    "CAP_SHARED_LOG",
    "EarlyPrepareProtocol",
    "LoglessOnePhaseProtocol",
    "MsgKind",
    "PaxosCommitProtocol",
    "PresumeCommitProtocol",
    "PresumedAbortProtocol",
    "PresumeNothingProtocol",
    "Protocol",
    "ProtocolSpec",
    "Transaction",
    "TxnOutcome",
    "default_protocols",
    "get_spec",
    "register_protocol",
    "specs",
]
