"""One-shot reproduction report.

``python -m repro report`` runs the core paper artifacts — Table I
(measured), Figure 6, the analytical model and the recovery timings —
and renders them as a single text document, suitable for pasting into
an issue or archiving next to a code revision.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.model import predict_figure6
from repro.analysis.tables import render_table
from repro.config import SimulationParams
from repro.harness.figure6 import PAPER_FIGURE6, run_figure6
from repro.harness.recovery import measure_crash_recovery
from repro.harness.table1 import run_table1
from repro.protocols.registry import default_protocols


def generate_report(
    n: int = 100, params: Optional[SimulationParams] = None
) -> str:
    """The full reproduction report as one string."""
    sections: list[str] = []
    p = params or SimulationParams.paper_defaults()

    sections.append("=" * 72)
    sections.append("One Phase Commit (CLUSTER 2012) — reproduction report")
    sections.append("=" * 72)
    sections.append(
        f"parameters: compute {p.compute.write_latency * 1e6:.0f} us/op, "
        f"network {p.network.latency * 1e6:.0f} us, "
        f"log device {p.storage.bandwidth / 1024:.0f} KB/s, "
        f"dispatch {p.compute.msg_processing_latency * 1e6:.0f} us/msg"
    )

    sections.append("")
    sections.append(run_table1(measured=True))

    sections.append("")
    figure = run_figure6(n=n, params=params)
    sections.append(figure.render())
    gains = figure.gain_over("PrN")
    sections.append(
        "paper reference: "
        + ", ".join(f"{k} {v}" for k, v in PAPER_FIGURE6.items())
        + "  (gains: PrC +0.39%, EP +6.60%, 1PC +60%)"
    )
    sections.append(
        "measured gains:  "
        + ", ".join(f"{k} {v:+.2f}%" for k, v in gains.items())
    )

    sections.append("")
    preds = predict_figure6(params)
    rows = [
        [name, f"{pred.throughput:.1f}", f"{figure.throughputs[name]:.1f}",
         f"{(pred.throughput / figure.throughputs[name] - 1) * 100:+.1f}%"]
        for name, pred in preds.items()
    ]
    sections.append(render_table(
        ["Protocol", "Model (tx/s)", "Simulated (tx/s)", "Model error"],
        rows,
        title="Analytical model vs simulation",
    ))

    sections.append("")
    rows = []
    for protocol in default_protocols():
        w = measure_crash_recovery(protocol, "mds2", params=params)
        c = measure_crash_recovery(protocol, "mds1", params=params)
        rows.append(
            [
                protocol,
                f"{w.settle_time * 1e3:.1f}",
                f"{c.settle_time * 1e3:.1f}",
                str(w.invariant_violations + c.invariant_violations),
            ]
        )
    sections.append(render_table(
        ["Protocol", "Worker-crash settle (ms)", "Coord-crash settle (ms)", "Violations"],
        rows,
        title="Crash recovery (crash 2 ms into a distributed CREATE)",
    ))

    return "\n".join(sections)
