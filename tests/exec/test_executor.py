"""Executor tests: parallel/serial equivalence, deterministic seeding,
spec-order merge and worker-failure propagation."""

import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

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
    specs = scaling_grid((1, 2), protocols=("1PC",), n=6)
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


def failing_grid():
    return [
        RunSpec(kind="burst", protocol="1PC", n=5),
        RunSpec(kind="burst", protocol="NOPE", n=5),
    ]


def test_runner_exception_propagates_serial():
    with pytest.raises(ExperimentError, match=r"(?s)spec 1 \(.*NOPE.*\) failed: .*unknown protocol"):
        run_grid(failing_grid(), workers=1)


def test_runner_exception_propagates_parallel():
    with pytest.raises(
        ExperimentError, match=r"(?s)spec 1 \(.*NOPE.*\) failed in worker:.*unknown protocol"
    ):
        run_grid(failing_grid(), workers=2)


def _exit_runner(spec, keep_cluster):
    os._exit(17)  # pragma: no cover - dies before returning


def test_worker_process_death_propagates():
    # Registered runners reach pool workers via fork on Linux.
    register_runner("die", _exit_runner)
    specs = [
        RunSpec(kind="die", protocol="1PC", n=1),
        RunSpec(kind="die", protocol="1PC", n=2),
    ]
    with pytest.raises(ExperimentError, match=r"worker process died.*first unfinished spec"):
        run_grid(specs, workers=2)


def test_pool_breaking_during_submit_is_the_same_error(monkeypatch):
    """The race the test above loses one time in a few: the first
    worker is dead before the parent queues the second job."""
    queued = []

    class PoolThatBreaksOnSecondSubmit:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            if queued:
                raise BrokenProcessPool("a child process terminated abruptly")
            queued.append(Future())
            return queued[-1]

    monkeypatch.setattr("repro.exec.executor.ProcessPoolExecutor", PoolThatBreaksOnSecondSubmit)
    with pytest.raises(ExperimentError, match=r"worker process died.*first unfinished spec: 1 "):
        run_grid(failing_grid(), workers=2)
    # What was queued before the pool broke is cancelled, not awaited.
    assert [future.cancelled() for future in queued] == [True]


def test_progress_trace_and_monitor_reporting():
    """``progress`` is the one reporting channel (the host-clock trace
    and the seconds monitor it once fed said nothing more)."""
    events = []
    specs = figure6_grid(n=5, protocols=("1PC", "EP"))
    run_grid(specs, workers=1, progress=events.append)
    assert [(e.done, e.total, e.index) for e in events] == [(1, 2, 0), (2, 2, 1)]
    assert [e.spec for e in events] == specs
    assert all(e.seconds > 0.0 for e in events)
    # The process's RSS watermark as each cell finished: never falls.
    assert 0 < events[0].rss_kb <= events[1].rss_kb


def test_payload_stripped_in_parallel_kept_in_serial():
    specs = figure6_grid(n=5, protocols=("1PC",))
    serial = run_grid(specs, workers=1, keep_clusters=True)
    assert serial[0].payload.cluster is not None
    parallel = run_grid(specs + figure6_grid(n=6, protocols=("1PC",)), workers=2)
    assert all(c.payload is None for c in parallel)


def test_cell_result_counts_forced_writes():
    cell = execute_spec(RunSpec(kind="burst", protocol="1PC", n=4))
    assert isinstance(cell, CellResult)
    # 1PC: 3 forced writes per distributed create (Table I) plus the
    # mkdir provisioning write.
    assert cell.forced_writes > 0
    assert cell.committed == 4


@pytest.mark.parametrize(
    "spec",
    [
        RunSpec(kind="scaling", protocol="1PC", n=4, n_pairs=2, trace="full"),
        RunSpec(kind="fanout", protocol="1PC", n=4, fanout=2, trace="full"),
        RunSpec(kind="abort_burst", protocol="PrN", n=4, abort_rate=0.25, trace="full"),
    ],
    ids=lambda spec: spec.kind,
)
def test_every_cell_kind_honours_spec_trace(spec):
    cell = execute_spec(spec, keep_cluster=True)
    assert cell.payload.cluster.trace.records
    assert cell.metrics is not None
