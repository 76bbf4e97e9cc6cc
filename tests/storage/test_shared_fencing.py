"""Unit tests for shared storage layouts, remote log reads and fencing."""

import pytest

from repro.config import StorageParams
from repro.sim import Simulator
from repro.storage import (
    FencedError,
    FencingController,
    LogRecord,
    PersistentReservationDriver,
    RecordKind,
    ResourceFencingDriver,
    SharedStorage,
    StonithDriver,
)


def rec(kind, txn=1, size=100.0):
    return LogRecord(kind=kind, txn_id=txn, size=size)


def test_provision_creates_partition_per_node():
    sim = Simulator()
    storage = SharedStorage(sim, shared_device=True)
    log1 = storage.provision("mds1")
    log2 = storage.provision("mds2")
    assert storage.provision("mds1") is log1
    assert storage.nodes() == ["mds1", "mds2"]
    assert log1 is not log2


def test_shared_device_serializes_all_logs():
    sim = Simulator()
    storage = SharedStorage(
        sim, StorageParams(bandwidth=100.0, san_concurrency=1), shared_device=True
    )
    log1, log2 = storage.provision("mds1"), storage.provision("mds2")
    done = []

    def writer(sim, log, tag):
        yield log.force(rec(RecordKind.STARTED, size=100.0))
        done.append((tag, sim.now))

    sim.process(writer(sim, log1, "a"))
    sim.process(writer(sim, log2, "b"))
    sim.run()
    # Both writes queue on the single SAN device: 1s then 2s.
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]
    assert storage.disk_of("mds1") is storage.disk_of("mds2")


def test_separate_devices_run_in_parallel():
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=100.0), shared_device=False)
    log1, log2 = storage.provision("mds1"), storage.provision("mds2")
    done = []

    def writer(sim, log, tag):
        yield log.force(rec(RecordKind.STARTED, size=100.0))
        done.append((tag, sim.now))

    sim.process(writer(sim, log1, "a"))
    sim.process(writer(sim, log2, "b"))
    sim.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(1.0))]
    assert storage.disk_of("mds1") is not storage.disk_of("mds2")


def test_log_of_unknown_node_raises():
    sim = Simulator()
    storage = SharedStorage(sim)
    with pytest.raises(KeyError):
        storage.log_of("ghost")


def test_remote_read_requires_fencing():
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=1e9))
    storage.provision("mds1")
    storage.provision("mds2")

    def reader(sim):
        yield from storage.read_remote_log("mds1", "mds2")

    sim.process(reader(sim))
    with pytest.raises(FencedError):
        sim.run()


def test_remote_read_after_fencing_returns_records():
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=1e9))
    log2 = storage.provision("mds2")
    storage.provision("mds1")

    def setup(sim):
        yield log2.force(rec(RecordKind.COMMITTED, txn=5))

    sim.process(setup(sim))
    sim.run()
    storage.fencing.fence("mds2", by="mds1")

    def reader(sim):
        records = yield from storage.read_remote_log("mds1", "mds2")
        return records

    p = sim.process(reader(sim))
    sim.run()
    assert [r.kind for r in p.value] == [RecordKind.COMMITTED]


def test_remote_read_own_log_rejected():
    sim = Simulator()
    storage = SharedStorage(sim)
    storage.provision("mds1")

    def reader(sim):
        yield from storage.read_remote_log("mds1", "mds1")

    sim.process(reader(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_split_brain_hazard_demonstrable_without_fencing():
    """With require_fenced=False the unsafe read is permitted — this is
    the §III-A hazard the fencing requirement exists to prevent."""
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=1e9))
    storage.provision("mds1")
    log2 = storage.provision("mds2")

    def unsafe_reader(sim):
        records = yield from storage.read_remote_log("mds1", "mds2", require_fenced=False)
        return len(records)

    def concurrent_writer(sim):
        yield log2.force(rec(RecordKind.COMMITTED))

    r = sim.process(unsafe_reader(sim))
    sim.process(concurrent_writer(sim))
    sim.run()
    # The read completed even though the owner was writing concurrently.
    assert r.ok


def test_fencing_controller_state():
    ctrl = FencingController()
    assert not ctrl.is_fenced("a")
    ctrl.fence("a")
    assert ctrl.is_fenced("a")
    assert ctrl.fenced_nodes == frozenset({"a"})
    ctrl.unfence("a")
    assert not ctrl.is_fenced("a")


def test_stonith_driver_powers_off_and_fences():
    sim = Simulator()
    ctrl = FencingController()
    powered_off = []
    driver = StonithDriver(sim, ctrl, power_off=powered_off.append, delay=0.05)

    def proc(sim):
        yield from driver.fence("mds1", "mds2")
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(0.05)
    assert powered_off == ["mds2"]
    assert ctrl.is_fenced("mds2")


def test_resource_fencing_driver_fences_without_power_off():
    sim = Simulator()
    ctrl = FencingController()
    driver = ResourceFencingDriver(sim, ctrl, delay=0.02)

    def proc(sim):
        yield from driver.fence("mds1", "mds2")

    sim.process(proc(sim))
    sim.run()
    assert ctrl.is_fenced("mds2")
    assert sim.now == pytest.approx(0.02)


def test_persistent_reservation_driver_is_fast():
    sim = Simulator()
    ctrl = FencingController()
    driver = PersistentReservationDriver(sim, ctrl, delay=0.005)

    def proc(sim):
        yield from driver.fence("mds1", "mds2")

    sim.process(proc(sim))
    sim.run()
    assert ctrl.is_fenced("mds2")
    assert sim.now == pytest.approx(0.005)


def test_fenced_node_cannot_write_shared_partition():
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=1e9))
    log = storage.provision("mds2")
    storage.fencing.fence("mds2")

    def writer(sim):
        yield log.force(rec(RecordKind.COMMITTED))

    sim.process(writer(sim))
    with pytest.raises(FencedError):
        sim.run()


def test_crash_and_restart_node_log_via_storage():
    sim = Simulator()
    storage = SharedStorage(sim, StorageParams(bandwidth=1e9))
    log = storage.provision("mds1")

    def phase1(sim):
        yield log.force(rec(RecordKind.STARTED))

    sim.process(phase1(sim))
    sim.run()
    storage.crash_node_log("mds1")
    storage.restart_node_log("mds1")

    def phase2(sim):
        yield log.force(rec(RecordKind.COMMITTED))

    sim.process(phase2(sim))
    sim.run()
    assert log.has(RecordKind.STARTED, 1) and log.has(RecordKind.COMMITTED, 1)
