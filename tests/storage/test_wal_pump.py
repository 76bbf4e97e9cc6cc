"""The process-free WAL pump and the callback-served disk under it:
ordering, one write in flight, shared-device FIFO, and what a crash, a
fence or a killed reader leaves behind."""

import pytest

from repro.config import StorageParams
from repro.obs import Observability
from repro.sim import Simulator
from repro.storage import Disk, LogRecord, RecordKind, WriteAheadLog
from repro.storage.fencing import FencedError, FencingController
from repro.storage.wal import LogLostError
from tests.conftest import session_waiting

BANDWIDTH = 1000.0  # a 100-byte record takes 0.1 s


def make(logs=("mds1",), fencing=None, capacity=1):
    sim = Simulator()
    obs = Observability(sim)
    disk = Disk(sim, StorageParams(bandwidth=BANDWIDTH), name="san", capacity=capacity, obs=obs)
    wals = [WriteAheadLog(sim, disk, owner=o, fencing=fencing, obs=obs) for o in logs]
    return sim, disk, wals, obs.trace


def rec(txn, kind=RecordKind.UPDATES, size=100.0):
    return LogRecord(kind=kind, txn_id=txn, size=size)


def forcing(wal, txn, log):
    def proc():
        try:
            yield wal.force(rec(txn))
            log.append(("durable", txn, wal.sim.now))
        except (LogLostError, FencedError) as exc:
            log.append((type(exc).__name__, txn, wal.sim.now))

    return proc()


def test_pump_writes_lazy_and_forced_appends_in_log_order():
    sim, disk, (wal,), trace = make()
    log = []

    def writer():
        wal.append_lazy(rec(1, RecordKind.ENDED))
        yield wal.force(rec(2))
        wal.append_lazy(rec(3, RecordKind.ENDED))
        yield wal.force(rec(4))
        log.append(sim.now)

    sim.process(writer())
    sim.run()
    assert [r.txn_id for r in wal.durable_records] == [1, 2, 3, 4]
    assert [r.get("txn") for r in trace.select("log_durable")] == [1, 2, 3, 4]
    assert disk.writes == 4
    assert log == [pytest.approx(0.4)]


def test_one_write_in_flight_per_log():
    sim, disk, (wal,), trace = make(capacity=4)  # the device could take four
    log = []
    for txn in (1, 2, 3):
        sim.process(forcing(wal, txn, log))
    sim.run(until=0.05)
    assert disk._in_service == 1 and disk.queue_length == 0
    sim.run()
    assert [(tag, txn) for tag, txn, _t in log] == [("durable", 1), ("durable", 2), ("durable", 3)]
    assert [t for _tag, _txn, t in log] == pytest.approx([0.1, 0.2, 0.3])


def test_idle_write_is_kick_plus_service_timer_plus_flush():
    sim, _disk, (wal,), _trace = make()
    before = sim.events_processed
    flush = wal.append_lazy(rec(1))
    sim.run()
    assert flush.processed and flush.ok
    assert sim.events_processed - before == 3


def test_shared_single_channel_device_is_fifo_across_two_logs():
    sim, disk, (wal_a, wal_b), trace = make(logs=("mds1", "mds2"))
    log = []
    # Interleaved same-instant forces: device order is request order.
    sim.process(forcing(wal_a, 1, log))
    sim.process(forcing(wal_b, 2, log))
    sim.process(forcing(wal_a, 3, log))
    sim.process(forcing(wal_b, 4, log))
    sim.run()
    writers = [(r.actor, r.time) for r in trace.select("disk_write")]
    assert [actor for actor, _t in writers] == ["mds1", "mds2", "mds1", "mds2"]
    assert [t for _actor, t in writers] == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert sorted(txn for _tag, txn, _t in log) == [1, 2, 3, 4]
    assert not disk.busy and disk.queue_length == 0


def test_crash_with_a_write_in_flight_loses_the_batch_and_pump_restarts():
    sim, disk, (wal,), trace = make()
    log = []
    sim.process(forcing(wal, 1, log))
    sim.process(forcing(wal, 2, log))
    sim.run(until=0.05)  # txn 1 is on the device, txn 2 queued in the log
    wal.crash()
    sim.run()
    assert [(tag, txn) for tag, txn, _t in log] == [("LogLostError", 1), ("LogLostError", 2)]
    assert wal.durable_records == ()
    assert disk.writes == 1  # the device finished the doomed write
    assert trace.count("log_durable") == 0

    # Down until restart(): an append only queues.
    lazy = wal.append_lazy(rec(3))
    sim.run()
    assert not lazy.triggered and disk.writes == 1
    wal.restart()
    sim.process(forcing(wal, 4, log))
    sim.run()
    assert [r.txn_id for r in wal.durable_records] == [3, 4]
    assert log[-1][:2] == ("durable", 4)


def test_fence_at_pump_time_fails_exactly_the_jobs_of_that_batch():
    fencing = FencingController()
    sim, disk, (wal,), _trace = make(fencing=fencing)
    log = []
    sim.process(forcing(wal, 1, log))
    sim.process(forcing(wal, 2, log))
    sim.run(until=0.05)  # txn 1 in flight, txn 2 waits for the next pump
    fencing.fence("mds1", by="mds2")
    sim.run(until=0.15)
    # The write already on the device completes; the next batch is cut
    # under the fence and its one job fails without touching the disk.
    assert [(tag, txn) for tag, txn, _t in log] == [("durable", 1), ("FencedError", 2)]
    assert disk.writes == 1
    fencing.unfence("mds1", by="mds1")
    sim.process(forcing(wal, 3, log))
    sim.run()
    assert [r.txn_id for r in wal.durable_records] == [1, 3]


@pytest.mark.parametrize("op,category", [("read", "disk_read"), ("stall", "disk_stall")])
def test_process_killed_inside_a_disk_op_frees_its_channel_at_kill_time(op, category):
    sim, disk, (wal,), trace = make()

    hold = disk.read(1000.0, actor="peer") if op == "read" else disk.stall(1.0)
    victim = session_waiting(sim, hold)
    log = []
    sim.run(until=0.2)  # the 1 s hold has the only channel
    sim.process(forcing(wal, 1, log))
    sim.run(until=0.3)
    assert disk.busy and disk.queue_length == 1
    victim.kill()
    assert disk.queue_length == 0  # the WAL write took the channel over at once
    sim.run()
    assert log == [("durable", 1, pytest.approx(0.4))]
    assert trace.count(category) == 0
    assert not disk.busy


def test_process_killed_while_queued_for_the_disk_leaves_the_queue():
    sim, disk, _wals, trace = make()

    session_waiting(sim, disk.read(1000.0))
    queued = session_waiting(sim, disk.read(500.0))
    sim.run(until=0.5)
    assert disk.queue_length == 1
    queued.kill()
    assert disk.queue_length == 0
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert trace.count("disk_read") == 1
