"""Kind-dispatched experiment runners: a table and one fold.

``spec.kind`` selects a runner from a registry; each built-in runner
unpacks the spec into one cell function of :mod:`repro.workloads`
(``burst``, ``abort_burst``, ``scaling``, ``fanout``, ``composite``)
or :mod:`repro.campaign.runner` (``campaign``) and folds the
:class:`~repro.workloads.cell.Measurement` it returns into a
plain-data :class:`~repro.exec.spec.CellResult` through
:func:`cell_result` — the only place a cell document is built.
Further experiment families register through :func:`register_runner`
without touching the executor.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.metrics import LatencyStats
from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.exec.spec import CellResult, RunSpec, derive_seed
from repro.obs.hub import SAMPLE_EVERY
from repro.workloads.burst import (
    run_abort_burst,
    run_burst,
    run_fanout_cell,
    run_scaling_cell,
)
from repro.workloads.cell import Measurement, wal_totals
from repro.workloads.composite import CompositeConfig, CompositeResult, run_composite

Runner = Callable[[RunSpec, bool], CellResult]

_RUNNERS: dict[str, Runner] = {}


def register_runner(kind: str, runner: Runner) -> None:
    """Register ``runner`` for specs of ``kind`` (last wins)."""
    _RUNNERS[kind] = runner


def get_runner(kind: str) -> Runner:
    """The runner for ``kind``; raises ``KeyError`` listing known kinds."""
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise KeyError(
            f"no runner registered for kind {kind!r} "
            f"(known: {sorted(_RUNNERS)})"
        ) from None


def execute_spec(spec: RunSpec, keep_cluster: bool = False) -> CellResult:
    """Run one spec in-process.

    ``keep_cluster`` retains the live simulated cluster on the result
    payload for post-run inspection; it is forced off when the result
    must cross a process boundary (clusters hold generator-based
    processes and do not pickle).
    """
    return get_runner(spec.kind)(spec, keep_cluster)


def cell_result(
    spec: RunSpec, seed: int, m: Measurement, payload: Any = None, **extras: Any
) -> CellResult:
    """Fold one measurement into the cell document of ``spec``.

    ``seed`` is the derived seed the cell ran with (a runner has it on
    its ``seeded_params()``; deriving it again is a canonical-JSON pass
    over the spec), ``payload`` what stays attached in-process when the
    caller keeps the cluster, ``extras`` the kind-specific fields
    (``verdict``, ``detail``).  A traced cell that kept its cluster
    carries the cluster's metrics snapshot.
    """
    metrics = m.cluster.obs.metrics.snapshot() if spec.trace == "full" and m.cluster else None
    return CellResult(
        spec=spec,
        derived_seed=seed,
        committed=m.committed,
        aborted=m.aborted,
        makespan=m.makespan,
        throughput=m.throughput,
        latency=m.latency,
        forced_writes=m.forced_writes,
        lazy_writes=m.lazy_writes,
        payload=payload,
        metrics=metrics,
        **extras,
    )


def _run_burst(spec: RunSpec, keep_cluster: bool) -> CellResult:
    params = spec.seeded_params()
    m = run_burst(spec.protocol, n=spec.n, params=params, op=spec.op, trace=spec.trace)
    return cell_result(spec, params.seed, m, m if keep_cluster else None)


def _run_abort_burst(spec: RunSpec, keep_cluster: bool) -> CellResult:
    params = spec.seeded_params()
    m = run_abort_burst(
        spec.protocol, n=spec.n, abort_rate=spec.abort_rate, params=params, trace=spec.trace
    )
    return cell_result(spec, params.seed, m, m if keep_cluster else None)


def _run_scaling(spec: RunSpec, keep_cluster: bool) -> CellResult:
    params = spec.seeded_params()
    m = run_scaling_cell(
        spec.protocol, spec.n_pairs, ops_per_dir=spec.n, params=params, trace=spec.trace
    )
    return cell_result(spec, params.seed, m, m if keep_cluster else None)


def _run_fanout(spec: RunSpec, keep_cluster: bool) -> CellResult:
    if spec.fanout is None:
        raise ValueError(f"fanout spec {spec.describe()!r} has no fanout field")
    params = spec.seeded_params()
    m = run_fanout_cell(
        spec.protocol,
        spec.fanout,
        n_files=spec.n,
        n_shards=spec.n_shards,
        params=params,
        trace=spec.trace,
    )
    return cell_result(spec, params.seed, m, m if keep_cluster else None)


def composite_cell(spec: RunSpec, result: CompositeResult) -> CellResult:
    """Fold a merged composite result into a cell document."""
    detail: dict[str, object] = {
        "groups": result.config.groups,
        "skipped": result.skipped,
        "reads": result.reads,
        "events": result.events,
    }
    if result.reads:
        reads = LatencyStats.from_streaming(result.read_latency)
        read_doc: dict[str, object] = {
            "count": reads.count,
            "mean": reads.mean,
            "p50": reads.p50,
            "p99": reads.p99,
        }
        if reads.mode != "exact":
            read_doc["mode"] = reads.mode
        detail["read_latency"] = read_doc
    # Latency components per op, over the 1 transaction in
    # ``sample_every`` the groups' attribute hubs sample.
    detail["attribution"] = {
        "sample_every": SAMPLE_EVERY,
        "components": {
            "/".join(key): {
                "count": stats.count,
                "mean": stats.mean,
                "p50": stats.quantile(50.0),
                "p99": stats.quantile(99.0),
            }
            for key, stats in result.attribution.items()
        },
    }
    m = Measurement(
        attempted=result.committed + result.aborted,
        committed=result.committed,
        makespan=result.makespan,
        throughput=result.throughput,
        latency=LatencyStats.from_streaming(result.latency),
        forced_writes=result.forced_writes,
        lazy_writes=result.lazy_writes,
        cluster=None,
    )
    return cell_result(spec, derive_seed(spec), m, detail=detail)


def _run_composite(spec: RunSpec, keep_cluster: bool) -> CellResult:
    """Composite mdtest-like cell: every shard group co-hosted on one
    kernel; a grid's cells run in parallel across the sweep's pool."""
    if spec.composite is None:
        raise ValueError(f"composite spec {spec.describe()!r} has no composite field")
    config = CompositeConfig.from_json(spec.composite)
    result = run_composite(spec.protocol, config, params=spec.seeded_params())
    return composite_cell(spec, result)


def _run_campaign(spec: RunSpec, keep_cluster: bool) -> CellResult:
    """Adversarial fault-campaign cell (see :mod:`repro.campaign.runner`).

    The verdict rides in ``CellResult.verdict``, so campaign cells flow
    through the executor like any other experiment cell.
    """
    if spec.campaign is None:
        raise ValueError("campaign spec is missing its schedule")
    schedule = CampaignSchedule.from_json(spec.campaign)
    if schedule.protocol != spec.protocol:
        raise ValueError(
            f"schedule protocol {schedule.protocol!r} does not match "
            f"spec protocol {spec.protocol!r}"
        )
    params = spec.seeded_params()
    mode = "full" if spec.trace == "full" else "attribute"  # off has no oracle fold
    cluster, verdict = run_campaign_cell(schedule, params=params, trace=mode)
    # Not ``measure``: a fault schedule may leave every operation
    # unanswered, and the makespan runs from time zero, not from a
    # submission instant.
    committed = verdict["committed"]
    replied = [o.replied_at for o in cluster.outcomes]
    makespan = max(replied) if replied else 0.0
    forced, lazy = wal_totals(cluster)
    m = Measurement(
        attempted=committed + verdict["aborted"],
        committed=committed,
        makespan=makespan,
        throughput=committed / makespan if makespan > 0 else 0.0,
        latency=None,
        forced_writes=forced,
        lazy_writes=lazy,
        cluster=cluster,
    )
    # The payload is the cluster itself, not the measurement holding
    # it: benchmarks/ledger/cells.py (frozen) reads a burst cell's
    # cluster as ``cell.payload.cluster`` but a campaign cell's as
    # ``cell.payload``.
    return cell_result(
        spec, params.seed, m, cluster if keep_cluster else None, verdict=verdict
    )


register_runner("burst", _run_burst)
register_runner("abort_burst", _run_abort_burst)
register_runner("scaling", _run_scaling)
register_runner("fanout", _run_fanout)
register_runner("campaign", _run_campaign)
register_runner("composite", _run_composite)
