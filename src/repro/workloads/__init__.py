"""Workload generators.

Every cell here is the same skeleton (:mod:`repro.workloads.cell`):
build a cluster, submit, ``drain`` until every transaction is answered,
``measure`` the replies into one :class:`Measurement`.

* :mod:`repro.workloads.burst` -- the §IV workload: N distributed
  transactions submitted at the same instant to the same acp server
  (HPC applications creating many files in one directory), plus its
  batched (§VI) and vote-refusal (§II-D) variants.
* :mod:`repro.workloads.scaling`, :mod:`repro.workloads.fanout` -- the
  burst spread over K coordinator/worker pairs, and over one
  coordinator with ``k`` workers per transaction.
* :mod:`repro.workloads.mixed` -- steady-state mixes of CREATE /
  DELETE / RENAME with configurable arrival processes, plus an
  mdtest-like phase workload (create-all, stat-all is metadata-read and
  free here, delete-all).
* :mod:`repro.workloads.replay` -- timestamped operation-trace replay
  (open or closed loop) with JSON save/load and a synthetic HPC
  checkpoint-trace generator.
* :mod:`repro.workloads.composite` -- the mdtest-like composite trace
  over independent shard groups (the million-transaction shape).
"""

from repro.workloads.burst import run_abort_burst, run_batched_burst, run_burst
from repro.workloads.cell import Measurement, drain, measure
from repro.workloads.fanout import run_fanout_cell
from repro.workloads.mixed import MixedWorkload, run_mdtest_phases, run_mixed
from repro.workloads.replay import (
    load_ops,
    run_replay,
    save_ops,
    synthetic_checkpoint_trace,
)
from repro.workloads.scaling import run_scaling_cell

__all__ = [
    "Measurement",
    "MixedWorkload",
    "drain",
    "load_ops",
    "measure",
    "run_abort_burst",
    "run_batched_burst",
    "run_burst",
    "run_fanout_cell",
    "run_mdtest_phases",
    "run_mixed",
    "run_replay",
    "run_scaling_cell",
    "save_ops",
    "synthetic_checkpoint_trace",
]
