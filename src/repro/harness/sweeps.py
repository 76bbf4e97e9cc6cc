"""Extension sweeps: sensitivity of Figure 6 to the model parameters.

Not in the paper, but the natural ablations of its design choices:

* network latency (does 1PC's advantage survive slow networks?),
* log-device bandwidth (the protocols differ mainly in forced writes),
* burst size (contention scaling on one directory),
* abort rate (PrC degrades to PrN on aborts — §II-D).

Every sweep is a declarative grid routed through the parallel
executor (:mod:`repro.exec`): ``workers=1`` is the serial fallback and
any worker count produces bit-identical results, because per-run seeds
derive from the spec rather than scheduling order.

All entry points share one calling convention (documented in
``docs/architecture.md``): the swept axis is the only positional
argument, and ``protocols=`` and ``workers=`` are keyword-only and mean
the same thing everywhere.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.config import KB, SimulationParams
from repro.exec import (
    CellResult,
    abort_rate_grid,
    burst_size_grid,
    disk_bandwidth_grid,
    network_latency_grid,
    run_grid,
)

#: ``repro sweep --kind`` -> its default points, table title, axis header
#: and point label.  The report's sweep artifacts
#: (:mod:`repro.harness.artifacts`) run and render exactly these.
SWEEPS: dict[str, tuple[tuple, str, str, Callable[[Any], str]]] = {
    "latency": ((10e-6, 100e-6, 1e-3, 5e-3), "Throughput (tx/s) vs network latency",
                "Latency", lambda seconds: f"{seconds * 1e6:.0f} us"),
    "disk": ((100 * KB, 400 * KB, 4000 * KB, 100_000 * KB),
             "Throughput (tx/s) vs log-device bandwidth",
             "Bandwidth", lambda bandwidth: f"{bandwidth / KB:.0f} KB/s"),
    "burst": ((1, 10, 50, 150), "Throughput (tx/s) vs burst size", "Burst", str),
    "abort": ((0.0, 0.1, 0.25), "Committed tx/s vs injected abort rate",
              "Abort rate", lambda rate: f"{rate:.0%}"),
}


def _fold(cells: Sequence[CellResult]) -> dict:
    """Cells (point-major order) -> ``{point: {protocol: throughput}}``."""
    out: dict = {}
    for cell in cells:
        out.setdefault(cell.spec.point, {})[cell.spec.protocol] = cell.throughput
    return out


def sweep_network_latency(
    latencies: Sequence[float],
    *,
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> dict[float, dict[str, float]]:
    """Throughput per protocol for each one-way network latency."""
    specs = network_latency_grid(latencies, protocols=protocols, n=n, params=params)
    return _fold(run_grid(specs, workers=workers))


def sweep_disk_bandwidth(
    bandwidths: Sequence[float],
    *,
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> dict[float, dict[str, float]]:
    """Throughput per protocol for each log-device bandwidth."""
    specs = disk_bandwidth_grid(bandwidths, protocols=protocols, n=n, params=params)
    return _fold(run_grid(specs, workers=workers))


def sweep_burst_size(
    sizes: Sequence[int],
    *,
    protocols: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> dict[int, dict[str, float]]:
    """Throughput per protocol for each burst size."""
    specs = burst_size_grid(sizes, protocols=protocols, params=params)
    return _fold(run_grid(specs, workers=workers))


def sweep_abort_rate(
    rates: Sequence[float],
    *,
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    seed: int = 7,
    workers: int = 1,
) -> dict[float, dict[str, float]]:
    """Committed throughput per protocol with a fraction of refused votes.

    Vote refusals are injected deterministically via each server's
    ``fail_next_vote`` hook, spread evenly over the burst (the cell is
    :func:`repro.workloads.burst.run_abort_burst`).
    """
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"abort rate must be in [0, 1), got {rate}")
    specs = abort_rate_grid(rates, protocols=protocols, n=n, params=params, seed=seed)
    return _fold(run_grid(specs, workers=workers))
