"""WAL edge cases not covered by the main suites."""

from repro.config import StorageParams
from repro.sim import Simulator
from repro.storage import Disk, LogRecord, RecordKind, WriteAheadLog


def make_wal(bandwidth=1000.0):
    sim = Simulator()
    disk = Disk(sim, StorageParams(bandwidth=bandwidth))
    return sim, WriteAheadLog(sim, disk, owner="mds1")


def test_read_of_empty_log_returns_nothing_but_costs_time():
    sim, wal = make_wal(bandwidth=100.0)

    def reader(sim):
        start = sim.now
        records = yield from wal.read(actor="peer")
        return records, sim.now - start

    p = sim.process(reader(sim))
    sim.run()
    records, elapsed = p.value
    assert records == ()
    assert elapsed > 0  # at least one block read


def test_checkpoint_unknown_txn_is_noop():
    sim, wal = make_wal()
    wal.checkpoint(424242)
    assert wal.durable_records == ()


def test_size_bytes_tracks_durable_content():
    sim, wal = make_wal(bandwidth=1e9)

    def writer(sim):
        yield wal.force(LogRecord(RecordKind.STARTED, txn_id=1, size=128.0))
        yield wal.force(LogRecord(RecordKind.COMMITTED, txn_id=1, size=256.0))

    sim.process(writer(sim))
    sim.run()
    assert wal.size_bytes() == 384.0
    wal.checkpoint(1)
    assert wal.size_bytes() == 0.0


def test_records_with_none_txn_are_ignored_by_open_transactions():
    sim, wal = make_wal(bandwidth=1e9)

    def writer(sim):
        yield wal.force(LogRecord(RecordKind.UPDATES, txn_id=None, size=64.0))
        yield wal.force(LogRecord(RecordKind.STARTED, txn_id=5, size=64.0))

    sim.process(writer(sim))
    sim.run()
    assert wal.open_transactions() == [5]


def test_restart_without_crash_adds_second_flusher_harmlessly():
    sim, wal = make_wal(bandwidth=1e9)
    wal.crash()
    wal.restart()
    wal.crash()
    wal.restart()

    def writer(sim):
        yield wal.force(LogRecord(RecordKind.STARTED, txn_id=1, size=64.0))

    sim.process(writer(sim))
    sim.run()
    assert wal.has(RecordKind.STARTED, 1)


def test_explicit_lsn_is_preserved():
    """A record that already carries an LSN (e.g. replayed from a
    trace) keeps it."""
    sim, wal = make_wal(bandwidth=1e9)
    rec = LogRecord(RecordKind.STARTED, txn_id=1, size=64.0, lsn=999)

    def writer(sim):
        yield wal.force(rec)

    sim.process(writer(sim))
    sim.run()
    assert wal.durable_records[0].lsn == 999


def test_forced_and_lazy_counters():
    sim, wal = make_wal(bandwidth=1e9)

    def writer(sim):
        yield wal.force(LogRecord(RecordKind.STARTED, txn_id=1, size=64.0))
        wal.append_lazy(LogRecord(RecordKind.ENDED, txn_id=1, size=64.0))

    sim.process(writer(sim))
    sim.run()
    assert wal.forced_appends == 1
    assert wal.lazy_appends == 1
