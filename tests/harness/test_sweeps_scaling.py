"""Direct unit tests for the sweep, scaling and placement harnesses."""

import pytest

from repro.fs.placement import StripedPlacement
from repro.harness.placement_study import run_placement_point, run_placement_study
from repro.harness.scaling import sweep_scaling
from repro.harness.sweeps import (
    sweep_abort_rate,
    sweep_burst_size,
    sweep_disk_bandwidth,
    sweep_network_latency,
)
from repro.workloads.burst import run_scaling_cell


def test_sweep_network_latency_shape():
    table = sweep_network_latency([100e-6, 1e-3], protocols=("PrN", "1PC"), n=15)
    assert set(table) == {100e-6, 1e-3}
    for row in table.values():
        assert set(row) == {"PrN", "1PC"}
        assert all(v > 0 for v in row.values())
    # Higher latency, lower throughput.
    assert table[1e-3]["1PC"] < table[100e-6]["1PC"]


def test_sweep_disk_bandwidth_shape():
    from repro.config import KB

    table = sweep_disk_bandwidth([200 * KB, 800 * KB], protocols=("1PC",), n=15)
    assert table[800 * KB]["1PC"] > table[200 * KB]["1PC"]


def test_sweep_burst_size_shape():
    table = sweep_burst_size([5, 20], protocols=("1PC",))
    assert set(table) == {5, 20}
    assert all(v > 0 for row in table.values() for v in row.values())


def test_sweep_abort_rate_validates_rate():
    with pytest.raises(ValueError):
        sweep_abort_rate([1.5], protocols=("1PC",), n=5)


def test_sweep_abort_rate_zero_equals_burst():
    table = sweep_abort_rate([0.0], protocols=("1PC",), n=10)
    assert table[0.0]["1PC"] > 0


def test_striped_placement_pairs():
    p = StripedPlacement(2)
    from repro.fs import ObjectId

    assert p.place(ObjectId.directory("/dir1")) == "mds1"
    assert p.place(ObjectId.directory("/dir2")) == "mds3"
    p.hint_inode_path(100, "/dir1/f0")
    assert p.place(ObjectId.inode(100)) == "mds2"
    p.hint_inode_path(101, "/dir2/f0")
    assert p.place(ObjectId.inode(101)) == "mds4"


def test_run_scaling_point_single_pair():
    assert run_scaling_cell("1PC", 1, ops_per_dir=10).throughput > 0


def test_scaling_sweep_monotone():
    table = sweep_scaling((1, 2), protocols=("1PC",), ops_per_dir=10)
    assert table[2]["1PC"] > table[1]["1PC"]


def test_placement_point_subtree_is_all_local():
    result = run_placement_point("subtree", "1PC", files_per_dir=5)
    assert result.distributed_fraction == 0.0
    assert result.committed == 20


def test_placement_point_hash_is_mostly_distributed():
    result = run_placement_point("hash", "1PC", files_per_dir=5)
    assert result.distributed_fraction > 0.4


def test_placement_study_covers_grid():
    results = run_placement_study(protocols=("1PC",), files_per_dir=5)
    assert {(r.placement, r.protocol) for r in results} == {
        ("hash", "1PC"),
        ("subtree", "1PC"),
    }
