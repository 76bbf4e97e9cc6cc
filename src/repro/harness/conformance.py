"""Protocol conformance kit: what every registered protocol must survive.

A check is a (scenario, oracle) pair: the scenario builds, drives and
settles a cluster, :func:`repro.analysis.oracle.check` judges it, and
the scenario adds at most one expectation of its own:

1. **liveness** — a failure-free distributed CREATE commits and both
   write-ahead logs are garbage collected;
2. **abort** — a refused vote aborts the CREATE and leaves no lock held;
3. **crash sweep** — the coordinator or the worker crashes and restarts
   at each crash point, and every server's log drains;
4. **crash after record** — for each distinct ``(server, kind)`` the
   liveness and abort runs make durable, that server crashes when the
   record first lands and restarts, and every server's log drains:
   §II-C's recovery by the last record in the log, with the crash
   points read from the runs instead of listed per protocol;
5. **fault scenarios** — the named :mod:`repro.faults` scenarios whose
   triggers fire for any protocol family (the ``log_durable``-triggered
   ones never fire for logless protocols; the crash sweep covers them);
6. **isolation** — a same-name race between two clients plus four
   creates, all six answered;
7. **local** — a CREATE whose every update lands on the coordinator
   (no workers), so the engine's ``run_local`` commits it and its log
   drains;
8. **fan-out crash** — engines with ``max_workers is None`` also run a
   four-worker batched CREATE whose middle worker crashes at each crash
   point, when some workers may already have force-committed, and
   every server's log drains;
9. **vocabulary** — across every cluster above, the record kinds the
   logs were asked to append equal the spec's ``log_records``: an
   undeclared kind (any kind, for a logless spec) or a declared kind
   never written fails, naming the first offending record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from repro.analysis.oracle import check
from repro.core.batching import BatchPlanner
from repro.faults import Fault, FaultPlan, TraceTrigger, scenario
from repro.fs.operations import OpPlan
from repro.fs.placement import SubtreePlacement
from repro.mds.cluster import Cluster
from repro.mds.scenarios import HOT_DIR, distributed_create_cluster, fanout_cluster
from repro.protocols.registry import ProtocolSpec, get_spec
from repro.workloads.cell import drive

DEFAULT_CRASH_POINTS = (0.5e-3, 2e-3, 4e-3, 7e-3)

#: Named fault scenarios every protocol must survive atomically.
FAULT_SCENARIOS = ("worker-crash-before-commit", "partition-at-vote", "vote-refusal")


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of a conformance run: one message per failed check."""

    protocol: str
    failures: tuple[str, ...]
    checks_run: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return f"<Conformance {self.protocol}: {self.checks_run} checks, {status}>"


class _Run(NamedTuple):
    """One check: its label, the cluster it settled, its failure."""

    label: str
    cluster: Cluster
    failure: Optional[str]


def check_protocol(
    protocol: str,
    crash_points: Sequence[float] = DEFAULT_CRASH_POINTS,
    settle: float = 300.0,
) -> ConformanceReport:
    """Run the full conformance battery for ``protocol``."""
    liveness, abort = _check_liveness(protocol), _check_abort(protocol)
    runs = [liveness, abort]
    runs += [
        _check_crash(protocol, victim, crash_at, settle)
        for victim in ("mds1", "mds2")
        for crash_at in crash_points
    ]
    runs += _checks_after_records(protocol, settle, (liveness, ()), (abort, (_refuse_vote,)))
    runs += [_check_fault_scenario(protocol, name, settle) for name in FAULT_SCENARIOS]
    runs.append(_check_isolation(protocol))
    runs.append(_check_local(protocol))
    spec = get_spec(protocol)
    if spec.engine.max_workers is None:
        runs += [_check_fanout_crash(protocol, crash_at, settle) for crash_at in crash_points]
    verdicts = [run.failure for run in runs] + [_check_vocabulary(spec, runs)]
    return ConformanceReport(protocol, tuple(v for v in verdicts if v), len(verdicts))


def _verdict(
    label: str, cluster: Cluster, plans: Sequence[OpPlan], unmet: Optional[str] = None
) -> _Run:
    """One check's failure message — the scenario's ``unmet``
    expectation, if any, plus the oracle's findings — or ``None``."""
    found = ([unmet] if unmet else []) + [str(v) for v in check(cluster, plans)]
    failure = f"{cluster.protocol_name}: {label}: {'; '.join(found)}" if found else None
    return _Run(label, cluster, failure)


def _create(protocol: str, *prepare: Callable[[Cluster], None]) -> tuple[Cluster, OpPlan]:
    """A two-server cluster readied by each ``prepare``, one CREATE submitted."""
    cluster, client = distributed_create_cluster(protocol)
    for step in prepare:
        step(cluster)
    plan = client.plan_create("/dir1/f0")
    drive(cluster, [(client, plan)])
    return cluster, plan


def _crash_and_settle(cluster: Cluster, victim: str, crash_at: float, settle: float) -> None:
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + settle)


def _answers(cluster: Cluster) -> list[bool]:
    return [o.committed for o in cluster.outcomes]


def _undrained(cluster: Cluster) -> Optional[str]:
    """Which servers' logs still hold records, and of which kinds."""
    kept = [
        f"{name} keeping {'+'.join(sorted({str(r.kind) for r in records}))}"
        for name in sorted(cluster.servers)
        if (records := cluster.storage.log_of(name).durable_records)
    ]
    return f"logs not drained: {', '.join(kept)}" if kept else None


def _committed_and_drained(what: str, cluster: Cluster) -> Optional[str]:
    undrained = _undrained(cluster)
    if _answers(cluster) == [True] and not undrained:
        return None
    return f"{what} answered {_answers(cluster)}, {undrained or 'logs drained'}"


def _check_liveness(protocol: str) -> _Run:
    cluster, plan = _create(protocol)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    unmet = _committed_and_drained("failure-free CREATE", cluster)
    return _verdict("liveness", cluster, [plan], unmet)


def _refuse_vote(cluster: Cluster) -> None:
    cluster.servers["mds2"].fail_next_vote = True


def _check_abort(protocol: str) -> _Run:
    cluster, plan = _create(protocol, _refuse_vote)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    held = [name for name, server in cluster.servers.items() if server.locks._table]
    unmet = None
    if _answers(cluster) != [False] or held:
        unmet = f"refused vote answered {_answers(cluster)}, locks held at {held}"
    return _verdict("abort", cluster, [plan], unmet)


def _check_crash(protocol: str, victim: str, crash_at: float, settle: float) -> _Run:
    cluster, plan = _create(protocol)
    _crash_and_settle(cluster, victim, crash_at, settle)
    label = f"crash of {victim} at {crash_at * 1e3:.1f} ms"
    return _verdict(label, cluster, [plan], _undrained(cluster))


def _checks_after_records(
    protocol: str, settle: float, *bases: tuple[_Run, tuple[Callable[[Cluster], None], ...]]
) -> list[_Run]:
    """One check per distinct ``(server, kind)`` a base run made
    durable, in order of first landing: the base run again, with that
    server crashed (and restarted) when that record first lands."""
    landed: dict[tuple[str, str], tuple[Callable[[Cluster], None], ...]] = {}
    for run, prepare in bases:
        for record in run.cluster.trace.records:
            if record.category == "log_durable" and record.actor in run.cluster.servers:
                landed.setdefault((record.actor, record.detail["kind"]), prepare)
    runs = []
    for (server, kind), prepare in landed.items():
        trigger = TraceTrigger("log_durable", server, (("kind", kind),))
        crash = FaultPlan([Fault("crash", server, trigger=trigger)])
        cluster, plan = _create(protocol, *prepare, crash.install)
        cluster.sim.run(until=cluster.sim.now + settle)
        label = f"crash of {server} after {kind}" + (" (refused vote)" if prepare else "")
        runs.append(_verdict(label, cluster, [plan], _undrained(cluster)))
    return runs


def _check_fault_scenario(protocol: str, name: str, settle: float) -> _Run:
    cluster, plan = _create(protocol, scenario(name).install)
    cluster.sim.run(until=cluster.sim.now + settle)
    return _verdict(f"scenario {name!r}", cluster, [plan])


def _check_isolation(protocol: str) -> _Run:
    cluster, client = distributed_create_cluster(protocol)
    other = cluster.new_client()
    ops = [(client, client.plan_create("/dir1/race")), (other, other.plan_create("/dir1/race"))]
    ops += [(client, client.plan_create(f"/dir1/c{i}")) for i in range(4)]
    drive(cluster, ops)
    unmet = None
    if not cluster.run_until_answered(6, 120.0):
        # A lost reply is a finding; the oracle still judges what came.
        unmet = f"only {len(cluster.outcomes)}/6 operations answered within 120 s"
    cluster.sim.run(until=cluster.sim.now + 120.0)
    return _verdict("isolation", cluster, [plan for _client, plan in ops], unmet)


def _check_local(protocol: str) -> _Run:
    # "/" and so every inode (placed by its home directory) on mds1:
    # the CREATE has no workers and the engine's ``run_local`` runs it.
    servers = ["mds1", "mds2"]
    placement = SubtreePlacement(servers, {"/": "mds1"})
    cluster = Cluster(protocol=protocol, server_names=servers, placement=placement)
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    plan = client.plan_create("/dir1/f0")
    drive(cluster, [(client, plan)])
    cluster.sim.run(until=cluster.sim.now + 120.0)
    return _verdict("local", cluster, [plan], _committed_and_drained("local CREATE", cluster))


def _check_fanout_crash(protocol: str, crash_at: float, settle: float, k: int = 4) -> _Run:
    cluster = fanout_cluster(protocol, k)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    batch = BatchPlanner(max_batch=k, max_workers=None).merge(plans)
    victim = batch.workers[k // 2]
    drive(cluster, [(client, batch)])
    _crash_and_settle(cluster, victim, crash_at, settle)
    label = f"k={k} crash of {victim} at {crash_at * 1e3:.1f} ms"
    return _verdict(label, cluster, [batch], _undrained(cluster))


def _check_vocabulary(spec: ProtocolSpec, runs: Sequence[_Run]) -> Optional[str]:
    """The kinds the runs' logs were asked to append must be the
    declared vocabulary: the first undeclared append is named (check,
    time, actor), a kind never written is dead vocabulary."""
    appends = [
        (run.label, record)
        for run in runs
        for record in run.cluster.trace.records
        if record.category == "log_append"
    ]
    found = [
        f"undeclared record {record.detail['kind']} appended in {label} "
        f"at {record.time * 1e3:.3f} ms by {record.actor}"
        for label, record in appends
        if record.detail["kind"] not in spec.log_records
    ][:1]
    written = {record.detail["kind"] for _label, record in appends}
    dead = [kind for kind in spec.log_records if kind not in written]
    if dead:
        found.append(f"declared but never written: {', '.join(dead)}")
    return f"{spec.name}: vocabulary: {'; '.join(found)}" if found else None
