"""Protocol conformance kit.

Anyone adding an atomic commitment protocol to the registry can run
this kit to check the non-negotiable obligations:

1. **liveness** — a failure-free distributed CREATE commits and is
   visible on both MDSs;
2. **abort cleanliness** — a refused vote aborts with no residue
   (state, locks, log records);
3. **atomicity under crashes** — for a sweep of crash points over both
   the coordinator and the worker, the transaction is all-or-nothing
   after recovery;
4. **isolation** — concurrent conflicting operations serialise (the
   lock-trace precedence graph is acyclic) and exactly one of two
   same-name creates wins;
5. **log hygiene** — after a committed transaction settles, both
   write-ahead logs are garbage collected;
6. **fault atomicity** — under the named :mod:`repro.faults` scenarios
   that apply to any protocol family (worker crash mid-execution,
   coordinator partitioned at the vote, a refused vote), the namespace
   settles all-or-nothing with a serialisable lock trace.  (Scenarios
   triggered by ``log_durable`` trace records are left to the crash
   sweep — they never fire for logless protocols.)
7. **partial fan-out crash** — protocols advertising multi-participant
   support (``engine.max_workers is None``) additionally run one
   four-worker batched transaction with a worker crashing mid-commit
   at each crash point: some workers may already have force-committed
   when the victim dies, and the batch must still settle atomically
   (all four files or none).

``check_protocol`` returns a :class:`ConformanceReport`;
``tests/protocols/test_conformance.py`` runs it for every registered
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.mds.client import Client
    from repro.mds.cluster import Cluster

DEFAULT_CRASH_POINTS = (0.5e-3, 2e-3, 4e-3, 7e-3)

#: Named fault scenarios every protocol must survive atomically.
#: Restricted to triggers that fire for any protocol family; the
#: ``log_durable``-predicated scenarios never trigger for logless
#: protocols and are covered by the crash-point sweep instead.
FAULT_SCENARIOS = (
    "worker-crash-before-commit",
    "partition-at-vote",
    "vote-refusal",
)


@dataclass
class ConformanceReport:
    """Outcome of a conformance run."""

    protocol: str
    failures: list[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append(message)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return f"<Conformance {self.protocol}: {self.checks_run} checks, {status}>"


def _fresh(protocol: str) -> "tuple[Cluster, Client]":
    from repro.mds.scenarios import distributed_create_cluster

    return distributed_create_cluster(protocol)


def _atomic_state(cluster: "Cluster") -> tuple[bool, bool]:
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    return (dentry is not None, len(inodes) > 0)


def check_protocol(
    protocol: str,
    crash_points: Sequence[float] = DEFAULT_CRASH_POINTS,
    settle: float = 300.0,
) -> ConformanceReport:
    """Run the full conformance battery for ``protocol``."""
    report = ConformanceReport(protocol)
    _check_liveness(protocol, report)
    _check_abort_cleanliness(protocol, report)
    for victim in ("mds1", "mds2"):
        for crash_at in crash_points:
            _check_crash_atomicity(protocol, victim, crash_at, settle, report)
    for name in FAULT_SCENARIOS:
        _check_fault_atomicity(protocol, name, settle, report)
    _check_isolation(protocol, report)
    from repro.protocols.registry import get_spec

    if get_spec(protocol).engine.max_workers is None:
        for crash_at in crash_points:
            _check_fanout_partial_crash(protocol, crash_at, settle, report)
    return report


def _check_liveness(protocol: str, report: ConformanceReport) -> None:
    cluster, client = _fresh(protocol)
    done = cluster.sim.process(client.create("/dir1/f0"), name="conf")
    cluster.sim.run(until=done)
    report.record(done.value["committed"] is True, f"{protocol}: failure-free CREATE aborted")
    cluster.sim.run(until=cluster.sim.now + 120.0)
    report.record(
        cluster.check_invariants() == [], f"{protocol}: invariants violated after commit"
    )
    dentry, inode = _atomic_state(cluster)
    report.record(dentry and inode, f"{protocol}: committed CREATE not visible on both MDSs")
    logs_clean = (
        cluster.storage.log_of("mds1").durable_records == ()
        and cluster.storage.log_of("mds2").durable_records == ()
    )
    report.record(logs_clean, f"{protocol}: logs not garbage collected after settle")


def _check_abort_cleanliness(protocol: str, report: ConformanceReport) -> None:
    cluster, client = _fresh(protocol)
    cluster.servers["mds2"].fail_next_vote = True
    done = cluster.sim.process(client.create("/dir1/f0"), name="conf")
    cluster.sim.run(until=done)
    report.record(done.value["committed"] is False, f"{protocol}: refused vote still committed")
    cluster.sim.run(until=cluster.sim.now + 120.0)
    dentry, inode = _atomic_state(cluster)
    report.record(
        not dentry and not inode, f"{protocol}: aborted CREATE left residue"
    )
    report.record(
        cluster.check_invariants() == [], f"{protocol}: invariants violated after abort"
    )
    for node in ("mds1", "mds2"):
        report.record(
            cluster.servers[node].locks._table == {},
            f"{protocol}: locks leaked at {node} after abort",
        )


def _check_crash_atomicity(
    protocol: str, victim: str, crash_at: float, settle: float, report: ConformanceReport
) -> None:
    cluster, client = _fresh(protocol)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + settle)
    label = f"{protocol}: crash of {victim} at {crash_at * 1e3:.1f} ms"
    report.record(cluster.check_invariants() == [], f"{label} violated invariants")
    dentry, inode = _atomic_state(cluster)
    report.record(dentry == inode, f"{label} left a partial transaction")


def _check_fault_atomicity(
    protocol: str, name: str, settle: float, report: ConformanceReport
) -> None:
    """One distributed CREATE under a named fault scenario must settle
    all-or-nothing with clean invariants and a serialisable trace."""
    from repro.analysis.serializability import precedence_graph
    from repro.faults import scenario
    from repro.locks import find_deadlock_cycle

    cluster, client = _fresh(protocol)
    scenario(name).install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + settle)
    label = f"{protocol}: scenario {name!r}"
    report.record(cluster.check_invariants() == [], f"{label} violated invariants")
    dentry, inode = _atomic_state(cluster)
    report.record(dentry == inode, f"{label} left a partial transaction")
    cycle = find_deadlock_cycle(set(precedence_graph(cluster.trace)))
    report.record(cycle is None, f"{label} produced conflict cycle {cycle}")


def _check_fanout_partial_crash(
    protocol: str,
    crash_at: float,
    settle: float,
    report: ConformanceReport,
    k: int = 4,
) -> None:
    """One ``k``-worker batched CREATE with a worker crash mid-commit.

    The dangerous window is when some workers have already
    force-committed their share while the victim dies with its updates
    volatile: the protocol must drive the transaction to one atomic
    outcome — all ``k`` files present (dentries on the coordinator,
    one inode per worker shard) or none.
    """
    from repro.core.batching import BatchPlanner
    from repro.mds.scenarios import COORDINATOR, HOT_DIR, fanout_cluster

    cluster = fanout_cluster(protocol, k)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    batch = BatchPlanner(max_batch=k, max_workers=None).merge(plans)
    victim = batch.workers[k // 2]
    client.submit(batch)
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + settle)
    label = f"{protocol}: k={k} crash of {victim} at {crash_at * 1e3:.1f} ms"
    report.record(cluster.check_invariants() == [], f"{label} violated invariants")
    dentries = cluster.store_of(COORDINATOR).stable_directories.get(HOT_DIR, {})
    placed = sum(1 for i in range(k) if f"f{i}" in dentries)
    inodes = sum(
        len(cluster.store_of(w).stable_inodes) for w in batch.workers
    )
    report.record(
        (placed, inodes) in ((k, k), (0, 0)),
        f"{label} left a partial batch ({placed}/{k} dentries, {inodes}/{k} inodes)",
    )


def _check_isolation(protocol: str, report: ConformanceReport) -> None:
    from repro.analysis.serializability import precedence_graph
    from repro.locks import find_deadlock_cycle

    cluster, client = _fresh(protocol)
    other = cluster.new_client()
    client.submit(client.plan_create("/dir1/race"))
    other.submit(other.plan_create("/dir1/race"))
    for i in range(4):
        client.submit(client.plan_create(f"/dir1/c{i}"))
    if not cluster.run_until_answered(6, 120.0):
        # A lost reply is a finding; the checks below run on what came.
        report.record(
            False,
            f"{protocol}: only {len(cluster.outcomes)}/6 operations answered within 120 s",
        )
    cluster.sim.run(until=cluster.sim.now + 120.0)
    winners = [o for o in cluster.outcomes if o.path == "/dir1/race" and o.committed]
    report.record(len(winners) == 1, f"{protocol}: same-name race had {len(winners)} winners")
    report.record(
        cluster.check_invariants() == [], f"{protocol}: invariants violated under contention"
    )
    cycle = find_deadlock_cycle(set(precedence_graph(cluster.trace)))
    report.record(cycle is None, f"{protocol}: conflict cycle {cycle}")
