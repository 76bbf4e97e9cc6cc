"""Parallel experiment executor.

The substrate the evaluation fans out on: declarative
:class:`RunSpec` grids, a process-pool :func:`run_grid` whose parallel
output is bit-identical to serial execution (deterministic per-spec
seeding, spec-order merge), and a machine-readable results layer
(:class:`SweepResults`) whose canonical form is byte-reproducible.

::

    from repro.exec import figure6_grid, run_sweep

    sweep = run_sweep(figure6_grid(n=100), kind="figure6", workers=4)
    sweep.write_json("BENCH_figure6.json")
"""

from repro.exec.executor import (
    ExperimentError,
    ProgressEvent,
    run_grid,
)
from repro.exec.grids import (
    abort_rate_grid,
    burst_size_grid,
    campaign_grid,
    composite_grid,
    disk_bandwidth_grid,
    fanout_grid,
    figure6_grid,
    network_latency_grid,
    scaling_grid,
)
from repro.exec.results import (
    SweepResults,
    git_revision,
    run_sweep,
)
from repro.exec.runners import execute_spec, register_runner
from repro.exec.spec import CellResult, RunSpec, derive_seed

__all__ = [
    "CellResult",
    "ExperimentError",
    "ProgressEvent",
    "RunSpec",
    "SweepResults",
    "abort_rate_grid",
    "burst_size_grid",
    "campaign_grid",
    "composite_grid",
    "derive_seed",
    "disk_bandwidth_grid",
    "execute_spec",
    "fanout_grid",
    "figure6_grid",
    "git_revision",
    "network_latency_grid",
    "register_runner",
    "run_grid",
    "run_sweep",
    "scaling_grid",
]
