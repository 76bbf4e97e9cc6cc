# repro: path src/repro/protocols/gen_step_fixture.py
"""GEN fixture: steps of a protocol session that block or drop their waits.

A step is a plain method the step interpreter calls back, so nothing
yields in it: a wait it returns is consumed only when it is handed to
``self.wait(...)``, and a host sleep in it stalls the kernel just as
one in a generator process does.
"""

import time


class ForgetfulSession:
    def begin(self, record):
        self.p.wal.force(record)  # GEN002: the flush is never waited for
        self.wait(self.p.sim.timeout(0.5), self._slept)

    def _slept(self, _ev):
        self.p.recv(self.inbox, timeout=0.5)  # GEN002: the getter steals the next message
        time.sleep(0.5)  # GEN001: a step runs on the kernel, so this blocks it
        self.end()
