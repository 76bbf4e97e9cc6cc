# repro: path src/repro/obs/obs_fixture_ok.py
"""OBS fixture: near-zero-cost hooks — zero findings."""


class FrugalHub:
    def __init__(self, sim, trace, spans):
        self.sim = sim
        self.trace = trace
        self.spans = spans
        self.enabled = True

    def msg_send(self, actor, kind, dst):
        if not self.enabled:
            return
        self._emit("msg_send", actor, {"kind": kind, "dst": dst})

    def worker_open(self, actor, txn):
        if self.enabled:
            self.spans.begin(txn, actor)

    def _emit(self, category, actor, detail):
        # The private emit is the callee side of a guarded hook.
        self.trace.records.append((self.sim.now, category, actor, detail))
