"""Analysis: cost accounting, metrics and table/figure rendering.

* :mod:`repro.analysis.costs` -- the trace-based Table I measurement
  that must agree with each protocol spec's declared row.
* :mod:`repro.analysis.metrics` -- throughput and latency statistics
  over transaction outcomes.
* :mod:`repro.analysis.tables` -- plain-text rendering of the paper's
  Table I, Figure 6 and the protocol timeline figures.
"""

from repro.analysis.costs import (
    BASE_MESSAGES,
    CostRow,
    MeasuredCosts,
    measure_protocol_costs,
)
from repro.analysis.metrics import LatencyStats, throughput
from repro.analysis.model import (
    ProtocolPrediction,
    predict,
    predict_figure6,
)
from repro.analysis.tables import render_bar_chart, render_table

__all__ = [
    "BASE_MESSAGES",
    "CostRow",
    "LatencyStats",
    "MeasuredCosts",
    "ProtocolPrediction",
    "measure_protocol_costs",
    "predict",
    "predict_figure6",
    "render_bar_chart",
    "render_table",
    "throughput",
]
