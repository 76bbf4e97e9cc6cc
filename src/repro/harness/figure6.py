"""Figure 6: distributed namespace operations per second.

Reruns the paper's experiment — 100 simultaneous distributed CREATEs
into one directory — once per protocol and reports throughput plus the
gain over PrN (the paper reports 1PC > +55 %, EP +6.6 %, PrC +0.39 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.tables import render_bar_chart
from repro.config import SimulationParams
from repro.exec import CellResult, figure6_grid, run_grid

#: Paper's Figure 6 values (distributed transactions per second).
PAPER_FIGURE6 = {"PrN": 15.0, "PrC": 15.06, "EP": 16.0, "1PC": 24.0}


@dataclass(frozen=True)
class Figure6Result:
    """Throughput per protocol plus derived gains.

    A serial run's cells keep their live cluster for post-run
    invariant checks (``results[name].payload.cluster``).
    """

    results: dict[str, CellResult]
    n: int

    @property
    def throughputs(self) -> dict[str, float]:
        """Protocol -> transactions per second."""
        return {name: res.throughput for name, res in self.results.items()}

    def gain_over(self, baseline: str = "PrN") -> dict[str, float]:
        """Percent throughput gain of each protocol over ``baseline``."""
        base = self.results[baseline].throughput
        return {
            name: (res.throughput / base - 1.0) * 100.0
            for name, res in self.results.items()
            if name != baseline
        }

    def render(self) -> str:
        """Figure 6 as an ASCII bar chart with gains annotated."""
        return render_figure6(self.throughputs, self.n)


def render_figure6(throughputs: dict[str, float], n: int) -> str:
    """Protocol -> tx/s of a burst of ``n`` as the Figure 6 bar chart."""
    return render_bar_chart(
        throughputs,
        title=f"Figure 6 — distributed namespace operations per second (burst of {n})",
        unit="tx/s",
        baseline="PrN" if "PrN" in throughputs else None,
    )


def run_figure6(
    *,
    protocols: Optional[Sequence[str]] = None,
    n: int = 100,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
) -> Figure6Result:
    """Run the Figure 6 experiment for every protocol.

    The grid is routed through the parallel executor; measurements are
    identical for any ``workers`` count.  The serial path (the default)
    keeps each run's live cluster on the cell payload; parallel runs
    return cells without one (clusters do not cross process
    boundaries).
    """
    specs = figure6_grid(n=n, protocols=protocols, params=params)
    cells = run_grid(specs, workers=workers, keep_clusters=workers == 1)
    return Figure6Result(results={cell.spec.protocol: cell for cell in cells}, n=n)
