"""The table of experiments: one row per ``repro sweep --kind``.

Figure 6 and its natural ablations, none but the first in the paper:

* figure6 — one burst per protocol (§IV),
* network latency (does 1PC's advantage survive slow networks?),
* log-device bandwidth (the protocols differ mainly in forced writes),
* burst size (contention scaling on one directory),
* abort rate (PrC degrades to PrN on aborts — §II-D),
* coordinator/worker pair count, participant fan-out, and the
  composite mdtest-like workload.

A row names its grid builder (:mod:`repro.exec.grids`), its default
points and how a table of it is titled and labelled.  ``repro sweep``,
the report's sweep artifacts (:mod:`repro.harness.artifacts`) and the
calibration search all build their specs from a row, run them through
:func:`repro.exec.run_grid` and :func:`fold` the cells.  Any worker
count gives bit-identical results, because per-run seeds derive from
the spec rather than scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.config import KB
from repro.exec import (
    CellResult,
    RunSpec,
    abort_rate_grid,
    burst_size_grid,
    composite_grid,
    disk_bandwidth_grid,
    fanout_grid,
    figure6_grid,
    network_latency_grid,
    run_grid,
    scaling_grid,
)


@dataclass(frozen=True)
class Sweep:
    """One experiment family: a grid builder and how to present it."""

    #: ``grid(points, *, protocols=, n=, params=, seed=, ...)``.
    grid: Callable[..., list[RunSpec]]
    #: The default points (``None``: the builder's default).
    points: Optional[tuple]
    title: str
    #: The header of the point column, and the label of a point in it.
    axis: str
    label: Callable[[Any], str] = str

    def specs(self, points: Optional[Sequence[Any]] = None, **options: Any) -> list[RunSpec]:
        """The grid at ``points`` (default: the row's)."""
        return self.grid(self.points if points is None else points, **options)

    def run(
        self, points: Optional[Sequence[Any]] = None, *, workers: int = 1, **options: Any
    ) -> dict:
        """The grid run and folded: ``{point: {protocol: throughput}}``."""
        return fold(run_grid(self.specs(points, **options), workers=workers))


def fold(cells: Sequence[CellResult]) -> dict:
    """Cells (point-major order) -> ``{point: {protocol: throughput}}``."""
    out: dict = {}
    for cell in cells:
        out.setdefault(cell.spec.point, {})[cell.spec.protocol] = cell.throughput
    return out


def per_protocol(table: dict) -> dict:
    """A fold whose points are its protocols (figure6's) ->
    ``{protocol: throughput}``."""
    return {protocol: tps for row in table.values() for protocol, tps in row.items()}


def gain(row: dict, name: str, base: str = "PrN") -> float:
    """Percent by which ``row[name]`` exceeds ``row[base]``."""
    return (row[name] / row[base] - 1.0) * 100.0


SWEEPS: dict[str, Sweep] = {
    "latency": Sweep(network_latency_grid, (10e-6, 100e-6, 1e-3, 5e-3),
                     "Throughput (tx/s) vs network latency", "Latency",
                     lambda seconds: f"{seconds * 1e6:.0f} us"),
    "disk": Sweep(disk_bandwidth_grid, (100 * KB, 400 * KB, 4000 * KB, 100_000 * KB),
                  "Throughput (tx/s) vs log-device bandwidth", "Bandwidth",
                  lambda bandwidth: f"{bandwidth / KB:.0f} KB/s"),
    "burst": Sweep(burst_size_grid, (1, 10, 50, 150),
                   "Throughput (tx/s) vs burst size", "Burst"),
    "abort": Sweep(abort_rate_grid, (0.0, 0.1, 0.25),
                   "Committed tx/s vs injected abort rate", "Abort rate",
                   lambda rate: f"{rate:.0%}"),
    # The point of a Figure-6 cell is its protocol, which is also its
    # column: the whole grid is one line of a table.
    "figure6": Sweep(figure6_grid, None, "Figure 6 — throughput (tx/s) per protocol",
                     "Cell", lambda _protocol: "burst"),
    "scaling": Sweep(scaling_grid, (1, 2, 4), "Aggregate throughput (tx/s) vs cluster size",
                     "Coordinator pairs", lambda pairs: f"{pairs} ({2 * pairs} MDSs)"),
    "fanout": Sweep(fanout_grid, (1, 2, 4, 8), "Fan-out — files/s vs workers per transaction",
                    "Workers", lambda k: f"k={k}"),
    "composite": Sweep(composite_grid, (1000, 4000), "Composite workload — committed tx/s",
                       "Operations", lambda ops: f"{ops} ops"),
}
