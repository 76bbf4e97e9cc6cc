"""Experiment harness: the top of the stack.

One module per paper artifact plus the extension sweeps; everything
here drives the layers below it (``workloads`` cells, the ``exec``
executor) and nothing below imports it:

* :mod:`repro.harness.table1` -- Table I (analytical + measured).
* :mod:`repro.harness.diagrams` -- Figures 2-5 (protocol timelines
  regenerated from traces).
* :mod:`repro.harness.sweeps` -- the table of experiments, one row per
  ``repro sweep --kind``: Figure 6 (ops/s per protocol) and the
  extension sweeps (latency, disk bandwidth, burst size, abort rate,
  pair count, fan-out width, the composite workload).
* :mod:`repro.harness.recovery` -- crash/recovery timing experiment.
* :mod:`repro.harness.placement_study`,
  :mod:`repro.harness.migration_study`, :mod:`repro.harness.calibrate`
  -- the studies and the calibration search.
* :mod:`repro.harness.artifacts`, :mod:`repro.harness.report` -- the
  closed list of what ``EXPERIMENTS.md`` reports (measure, render,
  claims) and the report/check/update loop over it.
"""

from repro.harness.sweeps import SWEEPS, Sweep

__all__ = [
    "SWEEPS",
    "Sweep",
]
