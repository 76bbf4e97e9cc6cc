# repro: path src/repro/protocols/proto_plugins.py
"""Deliberately broken plug-in engines for the PROTO rule tests.

Each class violates exactly one clause of the spec contract the
PROTO family verifies; the test registers them with
``temporary_protocol`` so they are live registry entries while the
whole-program pass runs.
"""

from repro.core.one_phase import OnePhaseCommitProtocol
from repro.protocols.lgl import LoglessOnePhaseProtocol
from repro.storage.records import RecordKind


class ChattyCommitProtocol(OnePhaseCommitProtocol):
    """Emits a record kind its spec never declared (PROTO001)."""

    name = "XCHAT"

    def coordinate(self, txn):
        # PROTO001: PREPARED is outside the registered vocabulary.
        yield self.wal.force(self.state_rec(RecordKind.PREPARED, txn.txn_id))
        yield from super().coordinate(txn)


class ForgetfulProtocol(OnePhaseCommitProtocol):
    """Declares ABORTED but recovery never consults it (PROTO002)."""

    name = "XFORGET"

    def recover(self):
        handled = (
            RecordKind.STARTED,
            RecordKind.UPDATES,
            RecordKind.REDO,
            RecordKind.COMMITTED,
            RecordKind.ENDED,
        )
        for record in self.wal.records():
            if record.kind not in handled:
                continue
        yield from ()


class NoisyLoglessProtocol(LoglessOnePhaseProtocol):
    """Registered logless yet forces a WAL record (PROTO003)."""

    name = "XNOISY"

    def run_local(self, txn):
        yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn.txn_id))
        yield from super().run_local(txn)
