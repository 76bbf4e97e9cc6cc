"""Property-based tests for the WAL and the network."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkParams, StorageParams
from repro.net import Network
from repro.sim import Simulator
from repro.storage import Disk, LogRecord, RecordKind, WriteAheadLog

import pytest

pytestmark = pytest.mark.slow

# A script of WAL actions: (op, size). "crash" loses buffered state.
wal_ops = st.lists(
    st.tuples(
        st.sampled_from(["force", "lazy", "crash_restart", "run_a_bit"]),
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@given(wal_ops)
@settings(max_examples=60, deadline=None)
def test_wal_durable_records_preserve_append_order(script):
    """Durable records always form an order-preserving subsequence of
    the appended records (log order is never violated, whatever mix of
    forced, lazy and crash events happens)."""
    sim = Simulator()
    disk = Disk(sim, StorageParams(bandwidth=10_000.0))
    wal = WriteAheadLog(sim, disk, owner="mds1")
    appended = []
    seq = 0

    def force_one(record):
        try:
            yield wal.force(record)
        except Exception:
            pass

    for op, size in script:
        seq += 1
        if op == "force":
            record = LogRecord(RecordKind.UPDATES, txn_id=seq, size=size)
            appended.append(record)
            sim.process(force_one(record))
            sim.run(until=sim.now + 0.001)
        elif op == "lazy":
            record = LogRecord(RecordKind.ENDED, txn_id=seq, size=size)
            appended.append(record)
            wal.append_lazy(record)
        elif op == "crash_restart":
            wal.crash()
            wal.restart()
        else:
            sim.run(until=sim.now + 0.05)
    sim.run(until=sim.now + 60.0)

    durable = list(wal.durable_records)
    # Subsequence check against append order (by identity).
    it = iter(appended)
    for record in durable:
        for candidate in it:
            if candidate is record:
                break
        else:
            raise AssertionError("durable record out of append order")
    # LSNs are strictly increasing.
    lsns = [r.lsn for r in durable]
    assert lsns == sorted(lsns)
    assert len(set(lsns)) == len(lsns)


@given(wal_ops)
@settings(max_examples=60, deadline=None)
def test_wal_forced_records_without_crash_are_durable(script):
    """With no crashes, every append eventually becomes durable."""
    sim = Simulator()
    disk = Disk(sim, StorageParams(bandwidth=10_000.0))
    wal = WriteAheadLog(sim, disk, owner="mds1")
    expected = 0
    for op, size in script:
        if op == "force":
            expected += 1
            wal.force(LogRecord(RecordKind.UPDATES, txn_id=expected, size=size))
        elif op == "lazy":
            expected += 1
            wal.append_lazy(LogRecord(RecordKind.ENDED, txn_id=expected, size=size))
        # crash_restart excluded from this property
        elif op == "crash_restart":
            continue
        else:
            sim.run(until=sim.now + 0.01)
    sim.run(until=sim.now + 120.0)
    assert len(wal.durable_records) == expected


messages = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=30)


@given(messages)
@settings(max_examples=60, deadline=None)
def test_network_delivers_fifo_per_pair(kinds):
    """With constant latency, per-pair delivery order equals send
    order, and every message between connected nodes is delivered
    exactly once."""
    sim = Simulator()
    net = Network(sim, NetworkParams(latency=1e-3))
    a, b = net.attach("a"), net.attach("b")
    received = []

    def consumer(sim):
        for _ in range(len(kinds)):
            msg = yield b.receive()
            received.append(msg.kind)

    sim.process(consumer(sim))

    def producer(sim):
        for i, kind in enumerate(kinds):
            a.send_to("b", kind, seq=i)
            yield sim.timeout(1e-5)

    sim.process(producer(sim))
    sim.run(until=sim.now + 10.0)
    assert received == kinds


@given(messages, st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_network_jitter_never_loses_messages(kinds, seed):
    from repro.sim import RngRegistry

    sim = Simulator()
    net = Network(sim, NetworkParams(latency=1e-3, jitter=5e-3), rng=RngRegistry(seed))
    a, b = net.attach("a"), net.attach("b")
    for kind in kinds:
        a.send_to("b", kind)
    sim.run(until=sim.now + 10.0)
    assert len(b.mailbox) == len(kinds)
