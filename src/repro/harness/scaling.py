"""Extension — metadata-service scaling across coordinators.

The sweep entry point over :func:`repro.workloads.burst.run_scaling_cell`:
aggregate distributed-create throughput as the workload fans out over
1..K coordinator/worker pairs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SimulationParams
from repro.exec import run_grid, scaling_grid
from repro.protocols.registry import default_protocols


def sweep_scaling(
    pair_counts: Sequence[int] = (1, 2, 4),
    *,
    protocols: Optional[Sequence[str]] = None,
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> dict[int, dict[str, float]]:
    """Aggregate throughput per ``(pair count, protocol)`` point.

    Shares the harness-wide calling convention (the swept axis
    positional; ``protocols=``, ``workers=`` keyword-only — see
    ``docs/architecture.md``).  ``protocols`` defaults to every
    registered protocol.  Routed through the parallel executor;
    ``workers=1`` is the serial fallback and produces identical
    results to any worker count.
    """
    if protocols is None:
        protocols = default_protocols()
    specs = [
        spec
        for k in pair_counts
        for proto in protocols
        for spec in scaling_grid(
            proto, pair_counts=(k,), ops_per_dir=ops_per_dir, params=params
        )
    ]
    cells = run_grid(specs, workers=workers)
    table: dict[int, dict[str, float]] = {}
    for cell in cells:
        table.setdefault(cell.spec.n_pairs, {})[cell.spec.protocol] = cell.throughput
    return table
