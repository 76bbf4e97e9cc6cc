# repro: path src/repro/obs/obs_fixture.py
"""OBS fixture: hooks that pay instrumentation cost while disabled."""


class LeakyHub:
    def __init__(self, sim, trace, spans):
        self.sim = sim
        self.trace = trace
        self.spans = spans
        self.enabled = True

    def msg_send(self, actor, kind, dst):
        # OBS001: the detail dict is built even when tracing is off.
        detail = {"kind": kind, "dst": dst}
        if not self.enabled:
            return
        self._emit("msg_send", actor, detail)

    def worker_open(self, actor, txn):
        self.spans.begin(txn, actor)  # OBS001: no enabled check at all

    def _emit(self, category, actor, detail):
        self.trace.records.append((self.sim.now, category, actor, detail))
