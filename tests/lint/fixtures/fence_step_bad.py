# repro: path src/repro/core/step_probe.py
"""FENCE002 fixture: a session step reads a remote log unfenced.

A step is registered with ``wait``, never called, so each step is a
root of the call graph: an unfenced read in one is an obligation no
caller is left to meet, and is reported in the step itself.
"""


class ProbingSession:
    def probe(self, worker):
        cluster = self.p.server.cluster
        # FENCE002: nothing fences the worker before its log is read.
        self.wait(cluster.storage.read_remote_log(self.p.me, worker), self._read)

    def _read(self, records):
        self.records = records
        self.end()
