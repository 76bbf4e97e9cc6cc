"""Group-commit WAL behaviour."""

from repro.config import StorageParams
from repro.sim import Simulator
from repro.storage import Disk, LogRecord, RecordKind, WriteAheadLog


def make_wal(group_commit, bandwidth=1000.0, max_bytes=64 * 1024.0):
    sim = Simulator()
    disk = Disk(sim, StorageParams(bandwidth=bandwidth))
    wal = WriteAheadLog(
        sim,
        disk,
        owner="mds1",
        group_commit=group_commit,
        group_commit_max_bytes=max_bytes,
    )
    return sim, wal


def rec(txn, size=100.0):
    return LogRecord(RecordKind.UPDATES, txn_id=txn, size=size)


def force_n_concurrently(sim, wal, n):
    done_times = []

    def writer(sim, i):
        yield wal.force(rec(i))
        done_times.append(sim.now)

    for i in range(1, n + 1):
        sim.process(writer(sim, i))
    sim.run()
    return done_times


def test_group_commit_coalesces_concurrent_forces():
    sim, wal = make_wal(group_commit=True)
    times = force_n_concurrently(sim, wal, 5)
    # All five forces land in the queue before the flusher wakes: one
    # device write covers the lot.
    assert wal.disk.writes == 1
    assert len(set(times)) == 1
    assert len(wal.durable_records) == 5


def test_without_group_commit_each_force_is_a_write():
    sim, wal = make_wal(group_commit=False)
    force_n_concurrently(sim, wal, 5)
    assert wal.disk.writes == 5


def test_group_commit_is_faster_under_fixed_overhead():
    def total_time(group_commit):
        sim = Simulator()
        disk = Disk(sim, StorageParams(bandwidth=100_000.0, op_overhead=0.01))
        wal = WriteAheadLog(sim, disk, owner="mds1", group_commit=group_commit)
        force_n_concurrently(sim, wal, 8)
        return sim.now

    assert total_time(True) < total_time(False) / 2


def test_group_commit_respects_byte_cap():
    sim, wal = make_wal(group_commit=True, max_bytes=250.0)
    force_n_concurrently(sim, wal, 5)
    # 100-byte jobs, cap 250: batches of at most 2.
    assert wal.disk.writes >= 3
    assert len(wal.durable_records) == 5


def test_group_commit_preserves_log_order():
    sim, wal = make_wal(group_commit=True)
    force_n_concurrently(sim, wal, 6)
    txns = [r.txn_id for r in wal.durable_records]
    assert txns == sorted(txns)
    lsns = [r.lsn for r in wal.durable_records]
    assert lsns == sorted(lsns)


def test_group_commit_crash_loses_whole_batch():
    sim, wal = make_wal(group_commit=True, bandwidth=100.0)
    outcomes = []

    def writer(sim, i):
        try:
            yield wal.force(rec(i))
            outcomes.append(("ok", i))
        except Exception:
            outcomes.append(("lost", i))

    for i in range(1, 4):
        sim.process(writer(sim, i))
    # First write (job 1) takes 1 s; crash during it.
    sim.call_at(0.5, wal.crash)
    sim.run(until=sim.now + 10.0)
    assert all(tag == "lost" for tag, _i in outcomes)
    assert wal.durable_records == ()


def test_protocol_suite_green_with_group_commit():
    """A full distributed create works unchanged under group commit."""
    from dataclasses import replace

    from repro.config import SimulationParams
    from repro.mds.scenarios import distributed_create_cluster

    base = SimulationParams.paper_defaults()
    params = base.with_(storage=replace(base.storage, group_commit=True))
    cluster, client = distributed_create_cluster("1PC", params=params)
    done = cluster.sim.process(client.create("/dir1/f0"), name="gc")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 60.0)
    assert cluster.check_invariants() == []


def test_group_commit_never_hurts_burst_throughput():
    """An instructive negative result: under the calibrated Figure 6
    parameters the coordinator's dispatcher spaces client requests
    380 µs apart, wider than the 156 µs STARTED write — so there is
    nothing to coalesce and group commit changes nothing.  (Its gain
    shows where forces genuinely pile up; see the concurrent-force
    tests above.)  It must at least never regress."""
    from dataclasses import replace

    from repro.config import SimulationParams
    from repro.workloads import run_burst

    base = SimulationParams.paper_defaults()
    grouped = base.with_(storage=replace(base.storage, group_commit=True))
    plain = run_burst("PrN", n=30).throughput
    batched = run_burst("PrN", n=30, params=grouped).throughput
    assert batched >= plain * 0.999


def test_group_commit_gains_on_seek_dominated_devices():
    """Group commit's real win condition: a device with a large fixed
    per-operation cost (seek-dominated, unlike the paper's model which
    folds seeks into bandwidth).  Coalescing the burst's upfront
    STARTED forces then saves whole seeks."""
    from dataclasses import replace

    from repro.config import SimulationParams
    from repro.workloads import run_burst

    base = SimulationParams.paper_defaults()
    seeky = base.with_(
        storage=replace(base.storage, bandwidth=40_000_000.0, op_overhead=5e-3)
    )
    grouped = seeky.with_(storage=replace(seeky.storage, group_commit=True))
    plain = run_burst("PrN", n=30, params=seeky).throughput
    batched = run_burst("PrN", n=30, params=grouped).throughput
    assert batched > plain * 1.05


def test_group_commit_reduces_device_operations_in_burst():
    """Even where throughput is unchanged (the calibrated bandwidth-
    dominated model), group commit measurably cuts the number of
    device operations."""
    from dataclasses import replace

    from repro.config import SimulationParams
    from repro.workloads import run_burst

    base = SimulationParams.paper_defaults()
    grouped = base.with_(storage=replace(base.storage, group_commit=True))
    plain = run_burst("1PC", n=30)
    batched = run_burst("1PC", n=30, params=grouped)
    plain_writes = plain.cluster.storage.disk_of("mds1").writes
    batched_writes = batched.cluster.storage.disk_of("mds1").writes
    assert batched_writes <= plain_writes
    assert batched.throughput >= plain.throughput * 0.98