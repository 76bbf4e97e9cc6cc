"""Executor tests: parallel/serial equivalence, deterministic seeding,
spec-order merge and worker-failure propagation."""

import json
import os

import pytest

from repro.exec import (
    CellResult,
    ExperimentError,
    RunSpec,
    derive_seed,
    execute_spec,
    figure6_grid,
    network_latency_grid,
    register_runner,
    run_grid,
    scaling_grid,
)


def small_grid():
    return figure6_grid(n=8, protocols=("PrN", "1PC")) + network_latency_grid(
        [100e-6, 1e-3], protocols=("1PC",), n=6
    )


def cells_json(cells):
    return json.dumps([c.to_dict() for c in cells], sort_keys=True)


def test_parallel_is_bit_identical_to_serial():
    specs = small_grid()
    serial = run_grid(specs, workers=1)
    parallel = run_grid(specs, workers=4)
    assert cells_json(serial) == cells_json(parallel)


def test_results_merge_in_spec_order():
    specs = small_grid()
    cells = run_grid(specs, workers=4)
    assert [c.spec for c in cells] == specs


def test_repeated_runs_are_deterministic():
    specs = scaling_grid("1PC", pair_counts=(1, 2), ops_per_dir=6)
    first = run_grid(specs, workers=2)
    second = run_grid(specs, workers=2)
    assert cells_json(first) == cells_json(second)


def test_derived_seed_depends_on_spec_not_order():
    a = RunSpec(kind="burst", protocol="1PC", n=10)
    b = RunSpec(kind="burst", protocol="1PC", n=10)
    c = RunSpec(kind="burst", protocol="1PC", n=11)
    d = RunSpec(kind="burst", protocol="1PC", n=10, seed=1)
    assert derive_seed(a) == derive_seed(b)
    assert derive_seed(a) != derive_seed(c)
    assert derive_seed(a) != derive_seed(d)


def test_derived_seed_is_applied_to_simulation():
    spec = RunSpec(kind="burst", protocol="1PC", n=5)
    cell = execute_spec(spec)
    assert cell.derived_seed == derive_seed(spec)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        RunSpec(kind="burst", protocol="1PC", n=0)
    with pytest.raises(ValueError):
        RunSpec(kind="abort_burst", protocol="1PC", abort_rate=1.5)
    with pytest.raises(ValueError):
        run_grid([RunSpec(kind="burst", protocol="1PC", n=5)], workers=0)


def test_unknown_kind_raises_serial():
    with pytest.raises(ExperimentError, match="no runner registered"):
        run_grid([RunSpec(kind="nonesuch", protocol="1PC", n=5)], workers=1)


def test_runner_exception_propagates_serial():
    with pytest.raises(ExperimentError, match="unknown protocol"):
        run_grid([RunSpec(kind="burst", protocol="NOPE", n=5)], workers=1)


def test_runner_exception_propagates_parallel():
    specs = [
        RunSpec(kind="burst", protocol="1PC", n=5),
        RunSpec(kind="burst", protocol="NOPE", n=5),
    ]
    with pytest.raises(ExperimentError, match="unknown protocol"):
        run_grid(specs, workers=2)


def _exit_runner(spec, keep_cluster):
    os._exit(17)  # pragma: no cover - dies before returning


def test_worker_process_death_propagates():
    # Registered runners reach pool workers via fork on Linux.
    register_runner("die", _exit_runner)
    specs = [
        RunSpec(kind="die", protocol="1PC", n=1),
        RunSpec(kind="die", protocol="1PC", n=2),
    ]
    with pytest.raises(ExperimentError, match="worker process died"):
        run_grid(specs, workers=2)


def test_progress_trace_and_monitor_reporting():
    """``progress`` is the one reporting channel (the host-clock trace
    and the seconds monitor it once fed said nothing more)."""
    events = []
    specs = figure6_grid(n=5, protocols=("1PC", "EP"))
    run_grid(specs, workers=1, progress=events.append)
    assert [(e.done, e.total, e.index) for e in events] == [(1, 2, 0), (2, 2, 1)]
    assert [e.spec for e in events] == specs
    assert all(e.seconds > 0.0 and not e.cached for e in events)


def test_payload_stripped_in_parallel_kept_in_serial():
    specs = figure6_grid(n=5, protocols=("1PC",))
    serial = run_grid(specs, workers=1, keep_clusters=True)
    assert serial[0].payload.cluster is not None
    parallel = run_grid(specs + figure6_grid(n=6, protocols=("1PC",)), workers=2)
    assert all(c.payload is None for c in parallel)


def failing_grid():
    return [
        RunSpec(kind="burst", protocol="1PC", n=5),
        RunSpec(kind="burst", protocol="NOPE", n=5),
    ]


def assert_no_partial_entries(root):
    """The cache holds only complete, servable documents — no debris."""
    assert list(root.rglob("*.tmp")) == []
    for path in root.rglob("*.json"):
        json.loads(path.read_text(encoding="utf-8"))  # must parse whole


def test_failed_serial_grid_names_spec_and_leaves_no_partial_entry(tmp_path):
    from repro.cache import ResultCache

    cache = ResultCache(root=tmp_path / "cache")
    with pytest.raises(ExperimentError, match=r"spec 1 \(.*NOPE.*\) failed"):
        run_grid(failing_grid(), workers=1, cache=cache)
    assert_no_partial_entries(tmp_path / "cache")
    # The cell that completed before the failure was still written through.
    assert len(cache.entries()) == 1


def test_failed_pooled_grid_names_spec_and_leaves_no_partial_entry(tmp_path):
    from repro.cache import ResultCache

    cache = ResultCache(root=tmp_path / "cache")
    with pytest.raises(ExperimentError, match=r"spec 1 \(.*NOPE.*\) failed in worker"):
        run_grid(failing_grid(), workers=2, cache=cache)
    assert_no_partial_entries(tmp_path / "cache")


def test_dead_worker_names_spec_and_leaves_no_partial_entry(tmp_path):
    from repro.cache import ResultCache

    register_runner("die", _exit_runner)
    cache = ResultCache(root=tmp_path / "cache")
    specs = [
        RunSpec(kind="die", protocol="1PC", n=1),
        RunSpec(kind="die", protocol="1PC", n=2),
    ]
    with pytest.raises(ExperimentError, match=r"worker process died.*first unfinished spec"):
        run_grid(specs, workers=2, cache=cache)
    assert_no_partial_entries(tmp_path / "cache")
    assert cache.entries() == []


def test_cell_result_counts_forced_writes():
    cell = execute_spec(RunSpec(kind="burst", protocol="1PC", n=4))
    assert isinstance(cell, CellResult)
    # 1PC: 3 forced writes per distributed create (Table I) plus the
    # mkdir provisioning write.
    assert cell.forced_writes > 0
    assert cell.committed == 4
