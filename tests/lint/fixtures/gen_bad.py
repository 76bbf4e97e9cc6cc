# repro: path src/repro/core/gen_fixture.py
"""GEN fixture: blocking calls and dropped waits in processes."""

import time


def probe_worker_log(cluster, requester, worker, txn_id):
    yield cluster.sim.timeout(0.0)
    return worker, requester, txn_id


def sleepy_process(sim):
    time.sleep(0.5)  # GEN001: blocks the deterministic kernel
    handle = open("/tmp/x")  # GEN001: real IO inside a process
    yield sim.timeout(1.0)
    return handle


def forgetful_coordinator(cluster, sim):
    probe_worker_log(cluster, "mds1", "mds2", 7)  # GEN002: never yielded
    result = yield from probe_worker_log(cluster, "mds1", "mds2", 8)
    return result


class ForgetfulEngine:
    def worker_step(self, inbox, record):
        self.recv(inbox, timeout=0.5)  # GEN002: the getter steals the next message
        self.wal.force(record)  # GEN002: the flush is never waited for
        yield self.sim.timeout(0.5)
