"""Protocol conformance kit: what every registered protocol must survive.

Every check is one fault cell
(:func:`repro.campaign.runner.run_fault_cell`): a cluster, its
submissions and its faults, settled for the campaign's budget and
judged by the one oracle (:func:`repro.analysis.oracle.check`) and by
any expectation of its own:

1. **liveness** — a failure-free distributed CREATE commits and both
   write-ahead logs are garbage collected;
2. **abort** — a refused vote aborts the CREATE and leaves no lock held;
3. **crash sweep** — the coordinator or the worker crashes and restarts
   at each crash point, and every server's log drains;
4. **crash after record** — for each distinct ``(server, kind)`` the
   liveness and abort runs make durable, that server crashes when the
   record first lands and restarts, and every server's log drains:
   §II-C's recovery by the last record in the log, with the crash
   points read from the runs instead of listed per protocol; a
   coordinator crashed at its own PREPARED must recover by
   ``resume-commit``;
5. **fault scenarios** — the named :mod:`repro.faults` scenarios whose
   triggers fire for any protocol family (the ``log_durable``-triggered
   ones never fire for logless protocols; the crash sweep covers them),
   bar ``vote-refusal``, whose cell is the abort check's;
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
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from repro.campaign.runner import SETTLE_SECONDS, TimedSubmission, run_fault_cell
from repro.core.batching import BatchPlanner
from repro.faults import SCENARIOS, Fault, FaultPlan, TraceTrigger
from repro.fs.placement import SubtreePlacement
from repro.mds.cluster import Cluster
from repro.mds.scenarios import HOT_DIR, distributed_create_cluster, fanout_cluster
from repro.protocols.registry import ProtocolSpec, get_spec

DEFAULT_CRASH_POINTS = (0.5e-3, 2e-3, 4e-3, 7e-3)

#: Named fault scenarios every protocol must survive atomically.
FAULT_SCENARIOS = ("worker-crash-before-commit", "partition-at-vote")

#: What a check expects of its settled cluster beyond the oracle: the
#: unmet expectation's message, or ``None``.
Expectation = Callable[[Cluster], Optional[str]]


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


def check_protocol(protocol: str) -> ConformanceReport:
    """Run the full conformance battery for ``protocol``."""
    committed = partial(_committed_and_drained, "failure-free CREATE")
    liveness = _one_create(protocol, "liveness", (), committed)
    refuse = SCENARIOS["vote-refusal"]  # mds2 refuses its vote
    abort = _one_create(protocol, "abort", refuse, _aborted_unlocked)
    runs = [liveness, abort]
    for victim in ("mds1", "mds2"):
        for at in DEFAULT_CRASH_POINTS:
            label, crash = f"crash of {victim} at {at * 1e3:.1f} ms", Fault("crash", victim, at=at)
            runs.append(_one_create(protocol, label, (crash,), _undrained))
    runs += _checks_after_records(protocol, (liveness, ()), (abort, refuse))
    runs += [_one_create(protocol, f"scenario {n!r}", SCENARIOS[n]) for n in FAULT_SCENARIOS]
    runs.append(_check_isolation(protocol))
    runs.append(_check_local(protocol))
    spec = get_spec(protocol)
    if spec.engine.max_workers is None:
        runs += [_check_fanout_crash(protocol, at) for at in DEFAULT_CRASH_POINTS]
    verdicts = [run.failure for run in runs] + [_check_vocabulary(spec, runs)]
    return ConformanceReport(protocol, tuple(v for v in verdicts if v), len(verdicts))


def _verdict(
    label: str,
    cluster: Cluster,
    submissions: Sequence[TimedSubmission],
    faults: Sequence[Fault],
    *expect: Expectation,
) -> _Run:
    """One check through the fault cell; its failure message names the
    unmet expectations, if any, then the oracle's findings."""
    violations = run_fault_cell(cluster, submissions, FaultPlan(faults))
    found = [unmet for e in expect if (unmet := e(cluster))] + [str(v) for v in violations]
    failure = f"{cluster.protocol_name}: {label}: {'; '.join(found)}" if found else None
    return _Run(label, cluster, failure)


def _one_create(protocol: str, label: str, faults: Sequence[Fault], *expect: Expectation) -> _Run:
    """One CREATE on the two-server cluster, under ``faults``."""
    cluster, client = distributed_create_cluster(protocol)
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    return _verdict(label, cluster, [submission], faults, *expect)


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


def _aborted_unlocked(cluster: Cluster) -> Optional[str]:
    held = [name for name, server in cluster.servers.items() if server.locks._table]
    if _answers(cluster) == [False] and not held:
        return None
    return f"refused vote answered {_answers(cluster)}, locks held at {held}"


def _checks_after_records(protocol: str, *bases: tuple[_Run, tuple[Fault, ...]]) -> list[_Run]:
    """One check per distinct ``(server, kind)`` a base run made
    durable, in order of first landing: the base run again, with that
    server crashed (and restarted) when that record first lands."""
    landed: dict[tuple[str, str], tuple[Fault, ...]] = {}
    for run, faults in bases:
        for record in run.cluster.trace.records:
            if record.category == "log_durable" and record.actor in run.cluster.servers:
                landed.setdefault((record.actor, record.detail["kind"]), faults)
    runs = []
    for (server, kind), faults in landed.items():
        trigger = TraceTrigger("log_durable", server, (("kind", kind),))
        crash = Fault("crash", server, trigger=trigger)
        label = f"crash of {server} after {kind}" + (" (refused vote)" if faults else "")
        resumed = (_resumed,) if (server, kind) == ("mds1", "PREPARED") and not faults else ()
        runs.append(_one_create(protocol, label, (*faults, crash), _undrained, *resumed))
    return runs


def _resumed(cluster: Cluster) -> Optional[str]:
    """§II-C: a coordinator that finds its own PREPARED "resubmits the
    PREPARE request ... and continues", so its recovery commits."""
    actions = [r.detail["action"] for r in cluster.trace.select("recovery", actor="mds1")]
    if actions == ["resume-commit"]:
        return None
    return f"recovery took {', '.join(actions) or 'no action'}, expected resume-commit"


def _check_isolation(protocol: str) -> _Run:
    cluster, client = distributed_create_cluster(protocol)
    other = cluster.new_client()
    paths = [(client, "/dir1/race"), (other, "/dir1/race")]
    paths += [(client, f"/dir1/c{i}") for i in range(4)]
    submissions = [(0.0, c, c.plan_create(path)) for c, path in paths]
    return _verdict("isolation", cluster, submissions, (), _six_answered)


def _six_answered(cluster: Cluster) -> Optional[str]:
    # A lost reply is a finding; the oracle still judges what came.
    n = len(cluster.outcomes)
    return None if n >= 6 else f"only {n}/6 operations answered within {SETTLE_SECONDS:g} s"


def _check_local(protocol: str) -> _Run:
    # "/" and so every inode (placed by its home directory) on mds1:
    # the CREATE has no workers and the engine's ``run_local`` runs it.
    servers = ["mds1", "mds2"]
    placement = SubtreePlacement(servers, {"/": "mds1"})
    cluster = Cluster(protocol=protocol, server_names=servers, placement=placement)
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    local = partial(_committed_and_drained, "local CREATE")
    return _verdict("local", cluster, [submission], (), local)


def _check_fanout_crash(protocol: str, crash_at: float, k: int = 4) -> _Run:
    cluster = fanout_cluster(protocol, k)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    batch = BatchPlanner(max_batch=k, max_workers=None).merge(plans)
    victim = batch.workers[k // 2]
    label = f"k={k} crash of {victim} at {crash_at * 1e3:.1f} ms"
    crash = Fault("crash", victim, at=crash_at)
    return _verdict(label, cluster, [(0.0, client, batch)], (crash,), _undrained)


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
