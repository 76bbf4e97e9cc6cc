"""Unit tests for the write-ahead log: force/lazy semantics, order,
crash durability, checkpointing."""

import pytest

from repro.config import StorageParams
from repro.obs import Observability
from repro.sim import Simulator
from repro.storage import Disk, LogRecord, RecordKind, WriteAheadLog
from repro.storage.wal import LogLostError


def make_wal(bandwidth=1000.0):
    sim = Simulator()
    obs = Observability(sim)
    disk = Disk(sim, StorageParams(bandwidth=bandwidth), obs=obs)
    wal = WriteAheadLog(sim, disk, owner="mds1", obs=obs)
    return sim, wal, obs.trace


def rec(kind, txn=1, size=100.0, **payload):
    return LogRecord(kind=kind, txn_id=txn, size=size, payload=payload)


def test_force_blocks_until_durable():
    sim, wal, _ = make_wal(bandwidth=1000.0)
    done = []

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, size=500.0))
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [pytest.approx(0.5)]
    assert wal.has(RecordKind.STARTED, 1)


def test_force_requires_records():
    sim, wal, _ = make_wal()

    def proc(sim):
        yield wal.force()

    sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_lazy_append_returns_immediately():
    sim, wal, _ = make_wal(bandwidth=100.0)
    t = []

    def proc(sim):
        wal.append_lazy(rec(RecordKind.ENDED, size=100.0))
        t.append(sim.now)
        yield sim.timeout(0.0)

    sim.process(proc(sim))
    sim.run(until=0.0)
    assert t == [0.0]
    assert not wal.has(RecordKind.ENDED, 1)  # not yet durable
    sim.run()
    assert wal.has(RecordKind.ENDED, 1)  # flushed in background


def test_lazy_flush_consumes_disk_time():
    sim, wal, _ = make_wal(bandwidth=100.0)

    def proc(sim):
        wal.append_lazy(rec(RecordKind.ENDED, size=100.0))
        yield sim.timeout(0.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert wal.disk.bytes_written == 100.0


def test_force_flushes_earlier_lazy_records_first():
    sim, wal, _ = make_wal(bandwidth=100.0)
    done = []

    def proc(sim):
        wal.append_lazy(rec(RecordKind.ENDED, txn=1, size=100.0))
        yield wal.force(rec(RecordKind.STARTED, txn=2, size=100.0))
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    # Force had to wait for the lazy record's flush (1s) plus its own (1s).
    assert done == [pytest.approx(2.0)]
    kinds = [r.kind for r in wal.durable_records]
    assert kinds == [RecordKind.ENDED, RecordKind.STARTED]


def test_multi_record_force_single_disk_write():
    sim, wal, _ = make_wal(bandwidth=100.0)

    def proc(sim):
        yield wal.force(
            rec(RecordKind.UPDATES, size=100.0), rec(RecordKind.COMMITTED, size=100.0)
        )

    sim.process(proc(sim))
    sim.run()
    assert wal.disk.writes == 1
    assert wal.disk.bytes_written == 200.0
    assert len(wal.durable_records) == 2


def test_crash_loses_buffered_records():
    sim, wal, _ = make_wal(bandwidth=100.0)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, size=100.0))
        ev = wal.append_lazy(rec(RecordKind.COMMITTED, size=100.0))
        # Crash before the lazy flush completes.
        wal.crash()
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, LogLostError)
        yield sim.timeout(0.0)

    sim.process(proc(sim))
    sim.run()
    assert wal.has(RecordKind.STARTED, 1)
    assert not wal.has(RecordKind.COMMITTED, 1)


def test_crash_loses_in_flight_force():
    sim, wal, _ = make_wal(bandwidth=100.0)
    outcomes = []

    def writer(sim):
        try:
            yield wal.force(rec(RecordKind.COMMITTED, size=100.0))
            outcomes.append("durable")
        except LogLostError:
            outcomes.append("lost")

    sim.process(writer(sim))
    # Crash mid-write (write takes 1s; crash at 0.5s).
    sim.call_at(0.5, wal.crash)
    sim.run()
    assert outcomes == ["lost"]
    assert not wal.has(RecordKind.COMMITTED, 1)


def test_restart_after_crash_allows_new_writes():
    sim, wal, _ = make_wal(bandwidth=1000.0)

    def phase1(sim):
        yield wal.force(rec(RecordKind.STARTED, size=100.0))
        wal.crash()

    sim.process(phase1(sim))
    sim.run()
    wal.restart()

    def phase2(sim):
        yield wal.force(rec(RecordKind.COMMITTED, size=100.0))

    sim.process(phase2(sim))
    sim.run()
    assert wal.has(RecordKind.STARTED, 1)
    assert wal.has(RecordKind.COMMITTED, 1)


def test_records_for_and_last_state():
    sim, wal, _ = make_wal(bandwidth=1e9)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, txn=1))
        yield wal.force(rec(RecordKind.UPDATES, txn=1))
        yield wal.force(rec(RecordKind.COMMITTED, txn=1))
        yield wal.force(rec(RecordKind.STARTED, txn=2))

    sim.process(proc(sim))
    sim.run()
    assert len(wal.records_for(1)) == 3
    assert wal.last_state(1) == RecordKind.COMMITTED
    assert wal.last_state(2) == RecordKind.STARTED
    assert wal.last_state(99) is None
    # UPDATES is data, not a state record.
    sim2, wal2, _ = make_wal(bandwidth=1e9)

    def proc2(sim):
        yield wal2.force(rec(RecordKind.UPDATES, txn=1))

    sim2.process(proc2(sim2))
    sim2.run()
    assert wal2.last_state(1) is None


def test_open_transactions_excludes_ended():
    sim, wal, _ = make_wal(bandwidth=1e9)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, txn=1))
        yield wal.force(rec(RecordKind.STARTED, txn=2))
        yield wal.force(rec(RecordKind.ENDED, txn=1))

    sim.process(proc(sim))
    sim.run()
    assert wal.open_transactions() == [2]


def test_checkpoint_garbage_collects_txn():
    sim, wal, _ = make_wal(bandwidth=1e9)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, txn=1, size=100.0))
        yield wal.force(rec(RecordKind.COMMITTED, txn=1, size=100.0))
        yield wal.force(rec(RecordKind.STARTED, txn=2, size=100.0))

    sim.process(proc(sim))
    sim.run()
    assert wal.size_bytes() == 300.0
    wal.checkpoint(1)
    assert wal.records_for(1) == []
    assert wal.size_bytes() == 100.0
    assert len(wal.records_for(2)) == 1


def test_read_takes_device_time():
    sim, wal, _ = make_wal(bandwidth=100.0)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED, size=100.0))
        start = sim.now
        records = yield from wal.read(actor="mds2")
        return (sim.now - start, records)

    p = sim.process(proc(sim))
    sim.run()
    elapsed, records = p.value
    assert elapsed == pytest.approx(1.0)
    assert [r.kind for r in records] == [RecordKind.STARTED]


def test_trace_distinguishes_sync_async():
    sim, wal, trace = make_wal(bandwidth=1e9)

    def proc(sim):
        yield wal.force(rec(RecordKind.STARTED))
        wal.append_lazy(rec(RecordKind.ENDED))
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert trace.count("log_durable", sync=True) == 1
    assert trace.count("log_durable", sync=False) == 1
    assert wal.forced_appends == 1
    assert wal.lazy_appends == 1


def test_fenced_wal_rejects_writes():
    from repro.storage import FencingController

    sim = Simulator()
    disk = Disk(sim, StorageParams(bandwidth=1e9))
    fencing = FencingController()
    wal = WriteAheadLog(sim, disk, owner="mds1", fencing=fencing)
    fencing.fence("mds1")

    from repro.storage import FencedError

    def proc(sim):
        yield wal.force(rec(RecordKind.COMMITTED))

    sim.process(proc(sim))
    with pytest.raises(FencedError):
        sim.run()
    with pytest.raises(FencedError):
        wal.append_lazy(rec(RecordKind.ENDED))


def test_force_returns_the_flush_event_and_refuses_at_the_call():
    from repro.sim import Event
    from repro.storage import FencedError, FencingController

    sim = Simulator()
    fencing = FencingController()
    wal = WriteAheadLog(sim, Disk(sim, StorageParams(bandwidth=1e9)), owner="mds1", fencing=fencing)
    flush = wal.force(rec(RecordKind.STARTED))
    assert isinstance(flush, Event) and not flush.triggered
    sim.run()
    assert flush.ok and wal.has(RecordKind.STARTED, 1)
    with pytest.raises(ValueError):
        wal.force()
    fencing.fence("mds1")
    with pytest.raises(FencedError):
        wal.force(rec(RecordKind.COMMITTED))
    assert wal.forced_appends == 1


def test_force_event_fails_with_log_lost_on_a_crash():
    sim, wal, _ = make_wal(bandwidth=100.0)
    flush = wal.force(rec(RecordKind.COMMITTED, size=100.0))  # a 1 s write
    sim.run(until=0.5)
    wal.crash()
    sim.run()
    assert not flush.ok and isinstance(flush.value, LogLostError)
    assert not wal.has(RecordKind.COMMITTED, 1)


def test_force_event_fails_with_fenced_when_fenced_mid_stream():
    """Fenced after the append but before the pump puts the batch on the
    device: the write never happens and the waiter hears why."""
    from repro.storage import FencedError, FencingController

    sim = Simulator()
    fencing = FencingController()
    wal = WriteAheadLog(sim, Disk(sim, StorageParams(bandwidth=1e9)), owner="mds1", fencing=fencing)
    seen = []

    def proc(sim):
        try:
            yield wal.force(rec(RecordKind.COMMITTED))
        except FencedError as exc:
            seen.append(exc)

    sim.process(proc(sim))
    sim.step()  # the kick-start: the job is queued, the pump one hop away
    assert wal.forced_appends == 1 and not seen
    fencing.fence("mds1")
    sim.run()
    assert len(seen) == 1
    assert not wal.has(RecordKind.COMMITTED, 1)
