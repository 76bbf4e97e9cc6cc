"""Protocol conformance kit: what every registered protocol must survive.

A check is a (scenario, oracle) pair: the scenario builds, drives and
settles a cluster, :func:`repro.analysis.oracle.check` judges it, and
the scenario adds at most one expectation of its own:

1. **liveness** — a failure-free distributed CREATE commits and both
   write-ahead logs are garbage collected;
2. **abort** — a refused vote aborts the CREATE and leaves no lock held;
3. **crash sweep** — the coordinator or the worker crashes and restarts
   at each crash point;
4. **fault scenarios** — the named :mod:`repro.faults` scenarios whose
   triggers fire for any protocol family (the ``log_durable``-triggered
   ones never fire for logless protocols; the crash sweep covers them);
5. **isolation** — a same-name race between two clients plus four
   creates, all six answered;
6. **fan-out crash** — engines with ``max_workers is None`` also run a
   four-worker batched CREATE whose middle worker crashes at each crash
   point, when some workers may already have force-committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.analysis.oracle import check
from repro.core.batching import BatchPlanner
from repro.faults import scenario
from repro.fs.operations import OpPlan
from repro.mds.cluster import Cluster
from repro.mds.scenarios import HOT_DIR, distributed_create_cluster, fanout_cluster
from repro.protocols.registry import get_spec
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


def check_protocol(
    protocol: str,
    crash_points: Sequence[float] = DEFAULT_CRASH_POINTS,
    settle: float = 300.0,
) -> ConformanceReport:
    """Run the full conformance battery for ``protocol``."""
    verdicts = [_check_liveness(protocol), _check_abort(protocol)]
    verdicts += [
        _check_crash(protocol, victim, crash_at, settle)
        for victim in ("mds1", "mds2")
        for crash_at in crash_points
    ]
    verdicts += [_check_fault_scenario(protocol, name, settle) for name in FAULT_SCENARIOS]
    verdicts.append(_check_isolation(protocol))
    if get_spec(protocol).engine.max_workers is None:
        verdicts += [_check_fanout_crash(protocol, crash_at, settle) for crash_at in crash_points]
    return ConformanceReport(protocol, tuple(v for v in verdicts if v), len(verdicts))


def _verdict(
    label: str, cluster: Cluster, plans: Sequence[OpPlan], unmet: Optional[str] = None
) -> Optional[str]:
    """One check's failure message — the scenario's ``unmet``
    expectation, if any, plus the oracle's findings — or ``None``."""
    found = ([unmet] if unmet else []) + [str(v) for v in check(cluster, plans)]
    return f"{cluster.protocol_name}: {label}: {'; '.join(found)}" if found else None


def _create(
    protocol: str, prepare: Callable[[Cluster], None] = lambda cluster: None
) -> tuple[Cluster, OpPlan]:
    """A two-server cluster readied by ``prepare``, one CREATE submitted."""
    cluster, client = distributed_create_cluster(protocol)
    prepare(cluster)
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


def _check_liveness(protocol: str) -> Optional[str]:
    cluster, plan = _create(protocol)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    left = [len(cluster.storage.log_of(node).durable_records) for node in ("mds1", "mds2")]
    unmet = None
    if _answers(cluster) != [True] or left != [0, 0]:
        unmet = f"failure-free CREATE answered {_answers(cluster)}, logs kept {left} records"
    return _verdict("liveness", cluster, [plan], unmet)


def _refuse_vote(cluster: Cluster) -> None:
    cluster.servers["mds2"].fail_next_vote = True


def _check_abort(protocol: str) -> Optional[str]:
    cluster, plan = _create(protocol, _refuse_vote)
    cluster.sim.run(until=cluster.sim.now + 120.0)
    held = [name for name, server in cluster.servers.items() if server.locks._table]
    unmet = None
    if _answers(cluster) != [False] or held:
        unmet = f"refused vote answered {_answers(cluster)}, locks held at {held}"
    return _verdict("abort", cluster, [plan], unmet)


def _check_crash(protocol: str, victim: str, crash_at: float, settle: float) -> Optional[str]:
    cluster, plan = _create(protocol)
    _crash_and_settle(cluster, victim, crash_at, settle)
    return _verdict(f"crash of {victim} at {crash_at * 1e3:.1f} ms", cluster, [plan])


def _check_fault_scenario(protocol: str, name: str, settle: float) -> Optional[str]:
    cluster, plan = _create(protocol, scenario(name).install)
    cluster.sim.run(until=cluster.sim.now + settle)
    return _verdict(f"scenario {name!r}", cluster, [plan])


def _check_isolation(protocol: str) -> Optional[str]:
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


def _check_fanout_crash(protocol: str, crash_at: float, settle: float, k: int = 4) -> Optional[str]:
    cluster = fanout_cluster(protocol, k)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    batch = BatchPlanner(max_batch=k, max_workers=None).merge(plans)
    victim = batch.workers[k // 2]
    drive(cluster, [(client, batch)])
    _crash_and_settle(cluster, victim, crash_at, settle)
    return _verdict(f"k={k} crash of {victim} at {crash_at * 1e3:.1f} ms", cluster, [batch])
