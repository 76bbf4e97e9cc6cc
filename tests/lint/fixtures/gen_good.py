# repro: path src/repro/core/gen_fixture_ok.py
"""GEN fixture: the coroutine-safe spellings — zero findings."""


def probe_worker_log(cluster, requester, worker, txn_id):
    yield cluster.sim.timeout(0.0)
    return worker, requester, txn_id


def patient_process(sim):
    yield sim.timeout(0.5)  # virtual time, not host time
    return sim.now


def diligent_coordinator(cluster, sim):
    result = yield from probe_worker_log(cluster, "mds1", "mds2", 7)
    background = sim.process(probe_worker_log(cluster, "mds1", "mds2", 8))
    return result, background


def delegating_helper(cluster):
    # Returning the generator hands it to the caller to drive.
    return probe_worker_log(cluster, "mds1", "mds2", 9)


class PatientEngine:
    def worker_step(self, inbox, record):
        msg = yield self.recv(inbox, timeout=0.5)  # the getter is waited on
        yield self.wal.force(record)  # so is the flush
        return msg

    def prepare(self, record):
        # Returning the flush event hands it to the caller to yield.
        return self.wal.force(record)
