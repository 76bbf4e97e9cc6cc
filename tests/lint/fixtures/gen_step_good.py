# repro: path src/repro/protocols/gen_step_fixture_ok.py
"""GEN fixture: steps that hand each wait to ``wait`` — zero findings."""


class PatientSession:
    def begin(self, record):
        self.wait(self.p.wal.force(record), self._durable)

    def _durable(self, _ev):
        self.wait(self.p.recv(self.inbox, timeout=0.5), self._received)

    def _received(self, ev):
        self.msg = ev._value
        self.end()
