"""Composite mdtest-like workload: lazy trace generation, windowed replay.

The §IV burst is one directory, one operation type, one shot.  Real
metadata traces (mdtest, the I/O-characterisation literature the paper
cites) mix CREATE/DELETE/RENAME/STAT, skew hard toward a hot
directory, and arrive in diurnal bursts.  This module generates such a
trace *lazily* from named RNG streams — millions of operations are
never materialised as a list — and replays it against one cluster per
shard group with a bounded window of closed-loop clients, folding
every latency into :class:`~repro.analysis.streaming.StreamingStats`.
Peak memory is therefore O(1) in operation count: the generator keeps
a bounded live-file window, the WAL garbage-collects as transactions
finish, and no per-transaction list grows anywhere.

Shard groups are fully independent (disjoint namespaces, servers,
networks, logs — the sharded-placement regime taken to its decoupled
limit) and run co-hosted on one DES kernel (:func:`run_composite`).
Each group's hub runs in ``"attribute"`` mode: it attributes 1
transaction in :data:`repro.obs.hub.SAMPLE_EVERY` in bounded memory,
and the merge folds the groups' attributions in group order.
The kernel's event heap breaks ties by a monotone sequence number, so
co-hosted groups interleave without ever reordering events *within* a
group, and groups share no state — each group's event sequence is
exactly its standalone sequence.  A sweep's parallelism is across
cells (``run_sweep --workers``), not across the groups of one cell.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis.streaming import StreamingStats, merge_all
from repro.config import SimulationParams
from repro.faults.triggers import NUMBER, read_fields
from repro.fs.placement import ForcedDistributedPlacement
from repro.mds.cluster import Cluster
from repro.mds.scenarios import HOT_DIR
from repro.sim import RngRegistry, Simulator
from repro.workloads.cell import Tally, TraceOp, drive, wal_totals

#: Trace operation kinds the generator emits.
TRACE_OPS = ("create", "delete", "rename", "stat")


@dataclass(frozen=True)
class CompositeConfig:
    """One composite workload, canonically serialisable.

    The canonical JSON form (:meth:`to_json`) is stored on the spec
    (``RunSpec.composite``), so the workload shape is part of the cell
    identity and the derived seed — the same discipline as campaign
    schedules.
    """

    #: Total operations across all groups.
    ops: int = 1000
    #: Independent shard groups (each a 2-MDS cluster of its own).
    groups: int = 1
    #: Operation mix as (kind, weight) pairs; weights need not sum to 1.
    mix: Tuple[Tuple[str, float], ...] = (
        ("create", 0.55),
        ("delete", 0.2),
        ("rename", 0.1),
        ("stat", 0.15),
    )
    #: Probability an operation targets the hot directory.
    hot_fraction: float = 0.8
    #: Cold directories per group (the non-hot targets).
    cold_dirs: int = 4
    #: Closed-loop clients per group — the in-flight operation bound.
    window: int = 16
    #: Live-file cap per group: creates beyond it become deletes, so
    #: the simulated namespace (and the generator's own state) stays
    #: bounded no matter how many operations flow through.
    working_set: int = 256
    #: Mean client think time between operations (seconds).
    mean_gap: float = 5e-4
    #: Diurnal rate multipliers; the trace is split into equal phases
    #: and phase ``p`` draws gaps with mean ``mean_gap / phases[p]``.
    phases: Tuple[float, ...] = (1.0, 4.0, 1.0, 0.25)

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.groups > self.ops:
            raise ValueError(f"groups {self.groups} cannot exceed ops {self.ops}")
        if not self.mix:
            raise ValueError("mix must be non-empty")
        for kind, weight in self.mix:
            if kind not in TRACE_OPS:
                raise ValueError(f"unknown mix op {kind!r}; have {TRACE_OPS}")
            if weight < 0:
                raise ValueError(f"mix weight for {kind!r} must be >= 0")
        if not any(weight > 0 for _, weight in self.mix):
            raise ValueError("mix weights must not all be zero")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {self.hot_fraction}")
        if self.cold_dirs < 0:
            raise ValueError(f"cold_dirs must be >= 0, got {self.cold_dirs}")
        if self.cold_dirs == 0 and self.hot_fraction < 1.0:
            raise ValueError("cold_dirs=0 requires hot_fraction=1.0")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.working_set < 1:
            raise ValueError(f"working_set must be >= 1, got {self.working_set}")
        if self.mean_gap < 0:
            raise ValueError(f"mean_gap must be >= 0, got {self.mean_gap}")
        if not self.phases or any(rate <= 0 for rate in self.phases):
            raise ValueError("phases must be non-empty positive rate multipliers")

    def to_dict(self) -> Dict[str, Any]:
        return {
            **dataclasses.asdict(self),
            "mix": [[kind, weight] for kind, weight in self.mix],
            "phases": list(self.phases),
        }

    def to_json(self) -> str:
        """Canonical JSON — the form stored on ``RunSpec.composite``."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(doc: Any) -> "CompositeConfig":
        """Exact inverse of :meth:`to_dict`; any other key, a missing one
        or a value of another type is a
        :class:`~repro.faults.ScheduleFormatError` naming the field
        (``composite.window: missing``)."""
        read_fields(doc, "composite", _FIELDS)
        mix = tuple((kind, weight) for kind, weight in doc["mix"])
        return CompositeConfig(**{**doc, "mix": mix, "phases": tuple(doc["phases"])})

    @staticmethod
    def from_json(text: str) -> "CompositeConfig":
        return CompositeConfig.from_dict(json.loads(text))


#: The fields of :meth:`CompositeConfig.to_dict`, by JSON class.
_FIELDS = {
    "ops": int, "groups": int, "mix": list, "hot_fraction": NUMBER, "cold_dirs": int,
    "window": int, "working_set": int, "mean_gap": NUMBER, "phases": list,
}


def group_seed(params_seed: int, group: int) -> int:
    """The root seed of shard group ``group`` — a named child stream of
    the spec-derived seed, so groups are independent but reproducible."""
    return RngRegistry(params_seed).spawn(f"composite-group-{group}").root_seed


def group_ops(config: CompositeConfig, group: int) -> int:
    """Operations assigned to ``group`` (remainder to the low groups)."""
    base, extra = divmod(config.ops, config.groups)
    return base + (1 if group < extra else 0)


def composite_trace(
    config: CompositeConfig, seed: int, n_ops: Optional[int] = None
) -> Iterator[TraceOp]:
    """Lazily generate one group's operation stream.

    Yields ``{"op", "path", "gap"[, "dst"]}`` dicts, one at a time —
    the stream is never materialised.  All randomness flows through
    named streams of one :class:`RngRegistry`, so the trace is a pure
    function of ``(config, seed)``.  Generator state is bounded: a
    live-file deque capped at ``working_set`` and an integer counter.
    """
    if n_ops is None:
        n_ops = config.ops
    # Each named stream is bound once; ``CompositeConfig`` has checked
    # every parameter the draws take.
    rng = RngRegistry(seed)
    mix_stream = rng.stream("mix")
    gap_stream = rng.stream("gap")
    target_stream = rng.stream("target")
    dir_stream = rng.stream("dir")
    kinds = [kind for kind, _ in config.mix]
    weights = [weight for _, weight in config.mix]
    total_weight = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc / total_weight)
    phases = config.phases
    n_phases = len(phases)
    live: "deque[str]" = deque()
    counter = 0
    for i in range(n_ops):
        rate = phases[min(i * n_phases // n_ops, n_phases - 1)]
        gap = (
            gap_stream.expovariate(1.0 / (config.mean_gap / rate)) if config.mean_gap > 0 else 0.0
        )
        if config.cold_dirs and not (target_stream.random() < config.hot_fraction):
            directory = f"/cold{dir_stream.randint(0, config.cold_dirs - 1)}"
        else:
            directory = HOT_DIR
        draw = mix_stream.random()
        kind = kinds[-1]
        for index, edge in enumerate(cumulative):
            if draw < edge:
                kind = kinds[index]
                break
        if kind in ("delete", "rename") and not live:
            kind = "create"
        if kind == "create" and len(live) >= config.working_set:
            kind = "delete"
        if kind == "create":
            path = f"{directory}/f{counter}"
            counter += 1
            live.append(path)
            yield {"op": "create", "path": path, "gap": gap}
        elif kind == "delete":
            path = live.popleft()
            yield {"op": "delete", "path": path, "gap": gap}
        elif kind == "rename":
            src = live.popleft()
            # Rename in place (mdtest's checkpoint rotation): the
            # transaction touches one directory plus the inode.
            dst = f"{src.rsplit('/', 1)[0]}/r{counter}"
            counter += 1
            live.append(dst)
            yield {"op": "rename", "path": src, "dst": dst, "gap": gap}
        else:
            path = live[0] if live else f"{directory}/f0"
            yield {"op": "stat", "path": path, "gap": gap}


@dataclass
class GroupOutcome(Tally):
    """One shard group's tally plus what its cluster spent, filled in
    by :func:`finalize_group`."""

    group: int = 0
    events: int = 0
    forced_writes: int = 0
    lazy_writes: int = 0
    #: The hub's attribution: ``(protocol, op, component)`` -> its
    #: distribution over the group's sampled transactions.
    attribution: Dict[Tuple[str, str, str], StreamingStats] = field(default_factory=dict)


@dataclass(frozen=True)
class CompositeResult:
    """Merged outcome of a composite run."""

    protocol: str
    config: CompositeConfig
    committed: int
    aborted: int
    skipped: int
    reads: int
    makespan: float
    throughput: float
    events: int
    forced_writes: int
    lazy_writes: int
    latency: StreamingStats
    read_latency: StreamingStats
    per_group: Tuple[GroupOutcome, ...]
    #: The groups' attributions merged, key by key, in group order.
    attribution: Dict[Tuple[str, str, str], StreamingStats]


def setup_group(
    sim: Simulator,
    protocol: str,
    config: CompositeConfig,
    params: SimulationParams,
    group: int,
) -> Tuple[Cluster, GroupOutcome]:
    """Wire one shard group onto ``sim``.

    The group is a self-contained two-MDS cluster — own network, own
    logs, own RNG root (:func:`group_seed`) — whose behaviour is
    therefore identical whether the kernel is shared or not.
    """
    seed = group_seed(params.seed, group)
    outcome = GroupOutcome(
        latency=StreamingStats(seed=seed, label=f"g{group}:latency"),
        read_latency=StreamingStats(seed=seed, label=f"g{group}:stat"),
        group=group,
    )
    cluster = Cluster(
        protocol=protocol,
        server_names=["mds1", "mds2"],
        params=dataclasses.replace(params, seed=seed),
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        trace="attribute",
        sim=sim,
        outcome_sink=outcome.on_outcome,
    )
    cluster.mkdir(HOT_DIR)
    for j in range(config.cold_dirs):
        cluster.mkdir(f"/cold{j}")
    trace_seed = RngRegistry(seed).spawn("trace").root_seed
    ops = composite_trace(config, trace_seed, group_ops(config, group))
    drive(cluster, ops, config.window, outcome)
    return cluster, outcome


def finalize_group(
    cluster: Cluster, outcome: GroupOutcome, group: int, events: int
) -> GroupOutcome:
    """Complete a finished group's outcome with what its cluster spent
    and its hub attributed (checks invariants first)."""
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"composite group {group} violations: {violations}")
    outcome.events = events
    outcome.forced_writes, outcome.lazy_writes = wal_totals(cluster)
    outcome.attribution = cluster.obs.attribution()
    return outcome


def merge_groups(
    protocol: str, config: CompositeConfig, outcomes: List[GroupOutcome]
) -> CompositeResult:
    """Merge per-group outcomes in group order — the canonical merge,
    which fixes the floating-point merge sequence (and hence the
    serialised JSON)."""
    outcomes = sorted(outcomes, key=lambda o: o.group)
    if [o.group for o in outcomes] != list(range(config.groups)):
        raise ValueError(f"expected groups 0..{config.groups - 1}, got {outcomes}")
    makespan = max(o.last_reply for o in outcomes)
    committed = sum(o.committed for o in outcomes)
    keys = sorted({key for o in outcomes for key in o.attribution})
    return CompositeResult(
        protocol=protocol,
        config=config,
        committed=committed,
        aborted=sum(o.aborted for o in outcomes),
        skipped=sum(o.skipped for o in outcomes),
        reads=sum(o.reads for o in outcomes),
        makespan=makespan,
        throughput=committed / makespan if makespan > 0 else 0.0,
        events=sum(o.events for o in outcomes),
        forced_writes=sum(o.forced_writes for o in outcomes),
        lazy_writes=sum(o.lazy_writes for o in outcomes),
        latency=merge_all([o.latency for o in outcomes]),
        read_latency=merge_all([o.read_latency for o in outcomes]),
        per_group=tuple(outcomes),
        attribution={
            key: merge_all([o.attribution[key] for o in outcomes if key in o.attribution])
            for key in keys
        },
    )


def run_composite(
    protocol: str,
    config: CompositeConfig,
    params: Optional[SimulationParams] = None,
) -> CompositeResult:
    """All groups co-hosted on one DES kernel; per-group statistics
    are accumulated separately and merged through :func:`merge_groups`."""
    params = params or SimulationParams.paper_defaults()
    sim = Simulator()
    hosted = [
        setup_group(sim, protocol, config, params, group)
        for group in range(config.groups)
    ]
    sim.run()
    outcomes = [
        finalize_group(cluster, outcome, group, 0)
        for group, (cluster, outcome) in enumerate(hosted)
    ]
    # Events cannot be attributed per group on a shared kernel; report
    # the kernel total on group 0 so the merged sum is the total.
    outcomes[0].events = sim.events_processed
    return merge_groups(protocol, config, outcomes)
