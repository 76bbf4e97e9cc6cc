# repro: path src/repro/obs/obs_fixture_ok.py
"""OBS fixture: near-zero-cost hooks — zero findings."""


class FrugalHub:
    def __init__(self, sim, trace, spans):
        self.sim = sim
        self.trace = trace
        self.spans = spans
        self.enabled = True
        self._sink = self._dispatch

    def msg_send(self, actor, kind, dst):
        if not self.enabled:
            return
        self._sink((self.sim.now, "msg_send", actor, {"kind": kind, "dst": dst}, None))

    def worker_open(self, actor, txn):
        if self.enabled:
            self.spans.begin(txn, actor)

    def _dispatch(self, record):
        # The private dispatch is the callee side of a guarded hook.
        self.trace.records.append(record)
