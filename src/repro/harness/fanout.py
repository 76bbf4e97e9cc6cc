"""Extension — participant fan-out over a sharded namespace.

The sweep entry point over :func:`repro.workloads.burst.run_fanout_cell`:
file throughput against the number of worker shards one batched
transaction spans.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SimulationParams
from repro.exec import fanout_grid, run_grid


def sweep_fanout(
    fanouts: Sequence[int] = (1, 2, 4, 8),
    *,
    protocols: Optional[Sequence[str]] = None,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> dict[tuple[str, int], float]:
    """File throughput per ``(protocol, fanout)`` point.

    ``protocols`` defaults to every registered protocol that accepts
    the widest requested transaction (see
    :func:`repro.protocols.registry.fanout_capable`).  Routed through
    the parallel executor; ``workers=1`` is the serial fallback and
    produces identical results to any worker count.
    """
    specs = fanout_grid(
        fanouts,
        protocols=protocols,
        n_files=n_files,
        n_shards=n_shards,
        params=params,
    )
    cells = run_grid(specs, workers=workers)
    out: dict[tuple[str, int], float] = {}
    for cell in cells:
        assert cell.spec.fanout is not None
        out[(cell.spec.protocol, cell.spec.fanout)] = cell.throughput
    return out
