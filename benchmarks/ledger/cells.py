"""The six pinned workloads of the performance ledger.

Each workload is a ``build(seed, scale)`` / ``run(inputs)`` pair over
the package's public API.  ``build`` makes everything that exists
before the first simulated event (kernel, clusters, directories,
clients, specs, schedules); ``run`` drives it to completion, checks the
outputs and returns the :class:`Facts` of the repetition — simulated
and counted values only, so two repetitions of one ``(workload, seed)``
must return equal facts.  ``scale`` divides the input size (1 is the
pinned size; ``--quick`` uses 10).

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``)
and at length in ``README.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.costs import fold_span_costs
from repro.analysis.utilization import device_utilization, lock_contention
from repro.config import NetworkParams, SimulationParams
from repro.exec import RunSpec, campaign_grid, execute_spec
from repro.mds.cluster import Cluster
from repro.obs import chrome_trace
from repro.protocols.registry import default_protocols, get_spec
from repro.sim import AnyOf, RngRegistry, Simulator, Store
from repro.workloads.composite import (
    CompositeConfig,
    finalize_group,
    merge_groups,
    setup_group,
)

#: Uniform per-message network jitter (seconds) on top of the paper's
#: 100 us hop, for the two workloads whose shape is otherwise fixed
#: (the Figure-6 burst and the pinned fault schedules): it is how
#: ``--seed`` reaches them.  Small enough to leave Table I, the
#: Figure-6 ordering and every campaign verdict unchanged.
SEED_JITTER = 5e-6


class CheckFailed(Exception):
    """A repetition produced a wrong output."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Facts:
    """What one repetition did, in simulated and counted terms."""

    #: Operations the workload generated (the "op" every per-op metric
    #: divides by).
    attempted: int
    #: Operations that completed with the intended effect.  The rest
    #: were skipped by the replaying client (target already gone) or,
    #: under injected faults, aborted or left unanswered; an operation
    #: lost or aborted *without* a fault fails the repetition's check.
    done: int
    #: Simulated makespan in seconds, summed over cells.
    sim_time: float
    #: Simulated client latency of every answered operation, seconds.
    latencies: list[float]
    events: int = 0
    forced: int = 0
    lazy: int = 0
    disk_writes: int = 0
    log_bytes: float = 0.0
    trace_records: int = 0
    #: Traced workloads only.
    disk_util_max: Optional[float] = None
    lock_wait_s: Optional[float] = None
    #: Workload-specific counts for the report (committed, skipped...).
    detail: dict[str, Any] = field(default_factory=dict)

    def tally(self, cluster: Cluster) -> None:
        """Add one cluster's storage and trace counters."""
        storage = cluster.storage
        disks = {}
        for node in storage.nodes():
            log = storage.log_of(node)
            self.forced += log.forced_appends
            self.lazy += log.lazy_appends
            disk = storage.disk_of(node)
            disks[id(disk)] = disk
        for disk in disks.values():
            self.disk_writes += disk.writes
            self.log_bytes += disk.bytes_written
        self.trace_records += len(cluster.trace.records)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], Any]
    run: Callable[[Any], Facts]


# -- kernel-churn -------------------------------------------------------------

CHURN_PROCS = 150
CHURN_ROUNDS = 500


def _build_churn(seed: int, scale: int) -> Any:
    rounds = CHURN_ROUNDS // scale
    sim = Simulator()
    stores = [Store(sim, name=f"churn:{i}") for i in range(CHURN_PROCS)]
    skew = RngRegistry(seed).stream("churn-skew")
    durations: list[float] = []

    def worker(i: int, offset: float) -> Any:
        mine, peer = stores[i], stores[(i + 1) % CHURN_PROCS]
        for r in range(rounds):
            started = sim.now
            # Bare timeout pop.
            yield sim.timeout(0.0001 * ((i + r) % 7 + 1) + offset)
            # Mailbox ping-pong: the put resumes the peer's pending get.
            peer.put((i, r))
            got = yield mine.get()
            # Immediate-succeed relay.
            relay = sim.event()
            relay.succeed(got)
            yield relay
            # Two-way condition over timeouts.
            yield AnyOf(sim, [sim.timeout(0.00005), sim.timeout(0.0002)])
            durations.append(sim.now - started)
        return i

    procs = [
        sim.process(worker(i, skew.uniform(0.0, SEED_JITTER)), name=f"churn-{i}")
        for i in range(CHURN_PROCS)
    ]
    return sim, procs, durations, rounds


def _run_churn(inputs: Any) -> Facts:
    sim, procs, durations, rounds = inputs
    sim.run()
    ops = CHURN_PROCS * rounds
    # Six events a round plus each process's start and end.
    expected = 6 * ops + 2 * CHURN_PROCS
    _require(
        sim.events_processed == expected,
        f"kernel-churn processed {sim.events_processed} events, expected {expected}",
    )
    returned = [p.value for p in procs if p.triggered and p.ok]
    _require(
        returned == list(range(CHURN_PROCS)),
        f"kernel-churn: only {len(returned)} of {CHURN_PROCS} processes returned",
    )
    return Facts(
        attempted=ops,
        done=len(durations),
        sim_time=sim.now,
        latencies=durations,
        events=sim.events_processed,
    )


# -- composite cells ----------------------------------------------------------

STAT_HEAVY_MIX = (("create", 6.0), ("delete", 3.0), ("rename", 1.0), ("stat", 90.0))


def _composite(
    name: str, protocol: str, ops: int, mix: tuple = CompositeConfig.mix
) -> Workload:
    def build(seed: int, scale: int) -> Any:
        config = CompositeConfig(
            ops=ops // scale, groups=2, window=16, working_set=256, mix=mix
        )
        params = dataclasses.replace(SimulationParams.paper_defaults(), seed=seed)
        sim = Simulator()
        hosted = [
            setup_group(sim, protocol, config, params, group)
            for group in range(config.groups)
        ]
        return sim, config, hosted

    def run(inputs: Any) -> Facts:
        sim, config, hosted = inputs
        sim.run()
        # finalize_group raises on a namespace-invariant violation.
        outcomes = [
            finalize_group(cluster, acc, group, 0)
            for group, (cluster, acc) in enumerate(hosted)
        ]
        result = merge_groups(protocol, config, outcomes)
        answered = result.committed + result.aborted + result.reads
        _require(
            answered + result.skipped == config.ops,
            f"{name}: {answered} answered + {result.skipped} skipped != {config.ops} ops",
        )
        _require(result.aborted == 0, f"{name}: {result.aborted} aborts without a fault")
        latencies = list(result.latency.values)
        if result.reads:
            latencies += result.read_latency.values
        facts = Facts(
            attempted=config.ops,
            done=result.committed + result.reads,
            sim_time=result.makespan,
            latencies=latencies,
            events=sim.events_processed,
            detail={
                "committed": result.committed,
                "aborted": result.aborted,
                "skipped": result.skipped,
                "reads": result.reads,
            },
        )
        for cluster, _ in hosted:
            facts.tally(cluster)
        return facts

    return Workload(name, build, run)


# -- traced-burst -------------------------------------------------------------

BURST_N = 100


def _seeded_params() -> SimulationParams:
    return SimulationParams(network=NetworkParams(jitter=SEED_JITTER))


def _build_burst(seed: int, scale: int) -> Any:
    params = _seeded_params()
    return [
        RunSpec(
            kind="burst", protocol=protocol, n=BURST_N // scale,
            seed=seed, trace=True, params=params,
        )
        for protocol in default_protocols()
    ]


def _run_burst(specs: Any) -> Facts:
    n = specs[0].n
    facts = Facts(
        attempted=0, done=0, sim_time=0.0, latencies=[],
        disk_util_max=0.0, lock_wait_s=0.0,
    )
    throughput = {}
    trace_events = 0
    for spec in specs:
        cell = execute_spec(spec, keep_cluster=True)
        cluster = cell.payload.cluster
        _require(
            cell.committed == n,
            f"traced-burst {spec.protocol}: committed {cell.committed}/{n}",
        )
        claimed = get_spec(spec.protocol).table1_row
        for root in cluster.obs.spans.roots():
            row = dataclasses.astuple(fold_span_costs(root))
            _require(
                claimed is None or row == tuple(claimed),
                f"traced-burst {spec.protocol} txn {root.txn_id}: "
                f"measured Table-I row {row} != claimed {claimed}",
            )
        trace_events += len(chrome_trace(cluster.obs.spans)["traceEvents"])
        for device in device_utilization(cluster.trace).values():
            facts.disk_util_max = max(facts.disk_util_max, device.utilization)
        for contention in lock_contention(cluster.trace).values():
            facts.lock_wait_s += contention.total_wait
        throughput[spec.protocol] = cell.throughput
        facts.attempted += n
        facts.done += cell.committed
        facts.sim_time += cell.makespan
        facts.latencies += [o.client_latency for o in cluster.outcomes]
        facts.events += cluster.sim.events_processed
        facts.tally(cluster)
    prn, prc, ep, one = (throughput[p] for p in ("PrN", "PrC", "EP", "1PC"))
    _require(
        prn < prc < ep < one and one >= 1.5 * prn,
        f"traced-burst: Figure-6 shape broken "
        f"(PrN {prn:.1f}, PrC {prc:.1f}, EP {ep:.1f}, 1PC {one:.1f} tx/s)",
    )
    facts.detail = {
        "throughput_tx_per_sim_s": throughput,
        "chrome_trace_events": trace_events,
    }
    return facts


# -- fault-campaign -----------------------------------------------------------

CAMPAIGN_PROTOCOLS = ("1PC", "PrN")
CAMPAIGN_RUNS = 24


def _build_campaign(seed: int, scale: int) -> Any:
    # The fault schedules are pinned (campaign seed 0) and --seed only
    # drives the network jitter: a different schedule set changes the
    # amount of work by +-30 % and, on some seeds, trips the
    # conflict-cycle finding recorded in README.md.
    params = _seeded_params()
    runs = -(-CAMPAIGN_RUNS // scale)
    return [
        dataclasses.replace(spec, seed=seed)
        for protocol in CAMPAIGN_PROTOCOLS
        for spec in campaign_grid(
            protocol, runs=runs, seed=0, n_ops=12, n_clients=2, params=params
        )
    ]


def _run_campaign(specs: Any) -> Facts:
    facts = Facts(attempted=0, done=0, sim_time=0.0, latencies=[])
    aborted = 0
    for spec in specs:
        cell = execute_spec(spec, keep_cluster=True)
        cluster = cell.payload
        found = cell.verdict["violations"]
        _require(
            not found,
            f"fault-campaign {spec.protocol} cell {spec.point}: {found}",
        )
        aborted += cell.aborted
        facts.attempted += spec.n
        facts.done += cell.committed
        facts.sim_time += cell.makespan
        facts.latencies += [o.client_latency for o in cluster.outcomes]
        facts.events += cluster.sim.events_processed
        facts.tally(cluster)
    facts.detail = {
        "committed": facts.done,
        "aborted": aborted,
        "unanswered": facts.attempted - facts.done - aborted,
    }
    return facts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-churn", _build_churn, _run_churn),
        _composite("composite-1pc", "1PC", ops=4000),
        _composite("composite-prn", "PrN", ops=4000),
        _composite("stat-heavy", "1PC", ops=12000, mix=STAT_HEAVY_MIX),
        Workload("traced-burst", _build_burst, _run_burst),
        Workload("fault-campaign", _build_campaign, _run_campaign),
    )
}
