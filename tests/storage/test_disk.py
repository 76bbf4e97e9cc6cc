"""Unit tests for the FIFO disk model."""

import pytest

from repro.config import KB, StorageParams
from repro.obs import Observability
from repro.sim import Simulator
from repro.storage import Disk


def make_disk(bandwidth=400 * KB, **kwargs):
    sim = Simulator()
    obs = Observability(sim)
    disk = Disk(sim, StorageParams(bandwidth=bandwidth, **kwargs), obs=obs)
    return sim, disk, obs.trace


def test_write_takes_bytes_over_bandwidth():
    sim, disk, _ = make_disk(bandwidth=1000.0)
    done = []
    disk.submit_write(500.0, "a", lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.5)]


def test_read_takes_bytes_over_bandwidth():
    sim, disk, _ = make_disk(bandwidth=1000.0)
    done = []

    def proc(sim):
        yield from disk.read(250.0)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [pytest.approx(0.25)]


def test_op_overhead_added_per_operation():
    sim, disk, _ = make_disk(bandwidth=1000.0, op_overhead=0.1)
    done = []
    disk.submit_write(100.0, "a", lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.2)]


def test_concurrent_writes_serialize_fifo():
    sim, disk, _ = make_disk(bandwidth=1000.0)
    done = []

    def served(tag):
        done.append((tag, sim.now))

    disk.submit_write(1000.0, "a", served, "a")
    disk.submit_write(1000.0, "b", served, "b")
    disk.submit_write(500.0, "c", served, "c")
    sim.run()
    assert done == [
        ("a", pytest.approx(1.0)),
        ("b", pytest.approx(2.0)),
        ("c", pytest.approx(2.5)),
    ]


def test_negative_sizes_rejected():
    sim, disk, _ = make_disk()

    def reader(sim):
        yield from disk.read(-1.0)

    with pytest.raises(ValueError):
        disk.submit_write(-1.0, "w", lambda: None)
    sim.process(reader(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_submit_write_rejects_a_negative_size_like_write_does():
    """A write validates its size at the call, naming the disk's
    complaint — not later in the kernel as an anonymous "negative
    delay" — and leaves the device idle."""
    sim, disk, trace = make_disk()
    done = []
    with pytest.raises(ValueError, match="negative write size"):
        disk.submit_write(-1.0, "mds1", done.append, "served")
    assert not disk.busy and disk.queue_length == 0
    sim.run()
    assert done == [] and trace.count("disk_write") == 0


def test_statistics_accumulate():
    sim, disk, trace = make_disk(bandwidth=1000.0)

    def proc(sim):
        disk.submit_write(100.0, "a", lambda: None)
        disk.submit_write(200.0, "a", lambda: None)
        yield from disk.read(50.0)

    sim.process(proc(sim))
    sim.run()
    assert disk.bytes_written == 300.0
    assert disk.bytes_read == 50.0
    assert disk.writes == 2 and disk.reads == 1
    assert trace.count("disk_write") == 2
    assert trace.count("disk_read") == 1


def test_queue_length_and_busy():
    sim, disk, _ = make_disk(bandwidth=100.0)
    for _ in range(3):
        disk.submit_write(100.0, "a", lambda: None)
    sim.run(until=0.5)
    assert disk.busy
    assert disk.queue_length == 2
    sim.run()
    assert not disk.busy
    assert disk.queue_length == 0
