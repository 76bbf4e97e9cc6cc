"""Shard-partitioned parallel DES: one kernel per shard group.

The composite workload's shard groups are fully independent — disjoint
namespaces, servers, networks, logs, RNG roots — so the discrete-event
simulation *itself* partitions: instead of co-hosting every group on
one kernel (:func:`repro.workloads.composite.run_composite`), each
group runs on its own :class:`~repro.sim.kernel.Simulator` in a pool
worker, and only plain-data :class:`GroupOutcome` records cross the
process boundary.

Byte-identity with the single-kernel mode holds by construction:

* A group's event sequence is identical standalone and co-hosted — the
  kernel orders events by ``(time, priority, sequence)`` and groups
  share no state, so interleaving never reorders events *within* a
  group.
* Both modes fold per-group accumulators through the same canonical
  group-order merge (:func:`~repro.workloads.composite.merge_groups`),
  so the floating-point merge sequence is the same.
* The quantile sketches are mergeable and keyed by group seed, never
  by worker or completion order.

Worker failures surface as :class:`~repro.exec.executor.ExperimentError`
naming the failing group, mirroring the grid executor's contract.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationParams
from repro.exec.executor import run_pool
from repro.exec.runners import composite_cell
from repro.exec.spec import CellResult, RunSpec
from repro.sim import Simulator
from repro.workloads.composite import (
    CompositeConfig,
    CompositeResult,
    GroupOutcome,
    finalize_group,
    merge_groups,
    setup_group,
)


def run_group(
    protocol: str, config_json: str, params: SimulationParams, group: int
) -> GroupOutcome:
    """One shard group on its own kernel: the partitioned unit, and the
    pool job (plain arguments in, plain data out)."""
    sim = Simulator()
    config = CompositeConfig.from_json(config_json)
    cluster, outcome = setup_group(sim, protocol, config, params, group)
    sim.run()
    return finalize_group(cluster, outcome, group, sim.events_processed)


def run_partitioned_composite(
    protocol: str,
    config: CompositeConfig,
    params: Optional[SimulationParams] = None,
    workers: int = 2,
) -> CompositeResult:
    """Run a composite workload with one DES kernel per shard group.

    ``workers`` bounds the process pool; groups beyond it queue.  With
    ``workers=1`` the groups still run on separate kernels, just
    serially in this process (useful for deterministic debugging
    without pool machinery).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    params = params or SimulationParams.paper_defaults()
    config_json = config.to_json()
    if workers == 1:
        outcomes = [
            run_group(protocol, config_json, params, group) for group in range(config.groups)
        ]
        return merge_groups(protocol, config, outcomes)

    outcomes = []
    run_pool(
        min(workers, config.groups),
        {
            group: (run_group, protocol, config_json, params, group)
            for group in range(config.groups)
        },
        lambda _group, outcome, _seconds: outcomes.append(outcome),
        died=lambda group: f"composite group {group}",
        failed=lambda group: f"composite group {group}",
    )
    # merge_groups sorts by group and validates completeness (0..G-1).
    return merge_groups(protocol, config, outcomes)


def run_partitioned_spec(spec: RunSpec, workers: int = 2) -> CellResult:
    """Execute a composite spec in partitioned mode.

    Returns a cell whose serialised document is byte-identical to the
    single-kernel runner's (``repro sweep --kind composite`` without
    ``--partition``) — the acceptance contract of the partitioned mode.
    """
    if spec.kind != "composite":
        raise ValueError(
            f"partitioned execution only applies to composite specs, "
            f"got kind {spec.kind!r}"
        )
    if spec.composite is None:
        raise ValueError(f"composite spec {spec.describe()!r} has no composite field")
    config = CompositeConfig.from_json(spec.composite)
    result = run_partitioned_composite(
        spec.protocol, config, params=spec.seeded_params(), workers=workers
    )
    return composite_cell(spec, result)
