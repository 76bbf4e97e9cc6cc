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
   points read from the runs instead of listed per protocol; once at
   the next poll, once at the landing instant itself, before the
   callback that acts on the write (folds, checkpoints) runs; a
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
9. **recovery cells** — one cell per declared recovery action the
   runs above cannot reach (:data:`ACTION_CELLS`), each built from the
   existing fault kinds, after which every server's log drains.  A
   cell shows its branch runs, not that it is safe in every timing:
   ``still-blocked`` (PrC, EP) and ``backup-unreachable`` (LGL) can
   lose a committed update in timings their cells avoid (CHANGES.md's
   FOUND lines);
10. **vocabulary** — across every cluster above, the record kinds the
    logs were asked to append equal the spec's ``log_records``, and the
    actions their recoveries report equal its ``recovery_actions``: an
    undeclared kind or action (any kind, for a logless spec) fails,
    naming the first one emitted (check, time, actor), and so does a
    declared one no check reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from repro.campaign.runner import SETTLE_SECONDS, TimedSubmission, run_fault_cell
from repro.config import FailureParams, SimulationParams
from repro.core.batching import BatchPlanner
from repro.faults import SCENARIOS, Fault, FaultPlan, TraceTrigger
from repro.faults.injector import POLL_INTERVAL
from repro.fs.placement import SubtreePlacement
from repro.mds.cluster import Cluster
from repro.mds.replica import backup_name
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
    runs += [cell(protocol) for act, cell in ACTION_CELLS.items() if act in spec.recovery_actions]
    verdicts = [run.failure for run in runs] + [_check_vocabulary(spec, runs)]
    return ConformanceReport(protocol, tuple(v for v in verdicts if v), len(verdicts))


def _verdict(
    label: str,
    cluster: Cluster,
    submissions: Sequence[TimedSubmission],
    faults: Sequence[Fault],
    *expect: Expectation,
    poll: float = POLL_INTERVAL,
) -> _Run:
    """One check through the fault cell, its triggers polled every
    ``poll`` s; its failure message names the unmet expectations, if
    any, then the oracle's findings."""
    violations = run_fault_cell(cluster, submissions, FaultPlan(faults, poll))
    found = [unmet for e in expect if (unmet := e(cluster))] + [str(v) for v in violations]
    failure = f"{cluster.protocol_name}: {label}: {'; '.join(found)}" if found else None
    return _Run(label, cluster, failure)


def _one_create(
    protocol: str, label: str, faults: Sequence[Fault], *expect: Expectation, poll=POLL_INTERVAL
) -> _Run:
    """One CREATE on the two-server cluster, under ``faults``."""
    cluster, client = distributed_create_cluster(protocol)
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    return _verdict(label, cluster, [submission], faults, *expect, poll=poll)


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
    """Two checks per distinct ``(server, kind)`` a base run made
    durable, in order of first landing: the base run again, with that
    server crashed (and restarted) when that record first lands — at
    the next poll, and at the instant it lands, before the callbacks
    of its write run (the poll grid then starts at that instant)."""
    landed: dict[tuple[str, str], tuple[tuple[Fault, ...], float]] = {}
    for run, faults in bases:
        for record in run.cluster.trace.records:
            if record.category == "log_durable" and record.actor in run.cluster.servers:
                landed.setdefault((record.actor, record.detail["kind"]), (faults, record.time))
    runs = []
    for (server, kind), (faults, at) in landed.items():
        crash = Fault("crash", server, trigger=_trigger("log_durable", server, kind))
        refused = " (refused vote)" if faults else ""
        resumed = (server, kind) == ("mds1", "PREPARED") and not faults
        expect = (_undrained, _resumed) if resumed else (_undrained,)
        for when, poll in ((f"after {kind}", POLL_INTERVAL), (f"as {kind} lands", at)):
            label = f"crash of {server} {when}{refused}"
            runs.append(_one_create(protocol, label, (*faults, crash), *expect, poll=poll))
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


def _check_local(protocol: str, label: str = "local", faults: Sequence[Fault] = ()) -> _Run:
    # "/" and so every inode (placed by its home directory) on mds1:
    # the CREATE has no workers and the engine's ``run_local`` runs it.
    servers = ["mds1", "mds2"]
    placement = SubtreePlacement(servers, {"/": "mds1"})
    cluster = Cluster(protocol=protocol, server_names=servers, placement=placement)
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    # A crash answers nobody: then only the oracle judges.
    expect = () if faults else (partial(_committed_and_drained, "local CREATE"),)
    return _verdict(label, cluster, [submission], faults, *expect)


def _check_fanout_crash(protocol: str, crash_at: float, k: int = 4) -> _Run:
    cluster = fanout_cluster(protocol, k)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    batch = BatchPlanner(max_batch=k, max_workers=None).merge(plans)
    victim = batch.workers[k // 2]
    label = f"k={k} crash of {victim} at {crash_at * 1e3:.1f} ms"
    crash = Fault("crash", victim, at=crash_at)
    return _verdict(label, cluster, [(0.0, client, batch)], (crash,), _undrained)


def _trigger(category: str, actor: Optional[str], kind: str, count: int = 1) -> TraceTrigger:
    """The ``count``-th ``category`` record of ``kind`` by ``actor``."""
    return TraceTrigger(category, actor, (("kind", kind),), count)


#: A reply timeout under which a blocked worker's ``DECISION_RETRIES``
#: queries, 6 timeouts apart, end in about 60 s: within the settle.
_IMPATIENT = SimulationParams(failure=FailureParams(reply_timeout=0.1))


def _check_blocked(server: str, kind: str, protocol: str) -> _Run:
    """§II-C's blocking, run: both servers crash when ``server``'s
    ``kind`` lands; the rebooted worker asks the absent coordinator for
    the decision until it gives up (``still-blocked``), and the
    coordinator, back at 120 s, reaches it as a stray."""
    cluster, client = distributed_create_cluster(protocol, _IMPATIENT)
    landed = _trigger("log_durable", server, kind)
    crashes = (
        Fault("crash", "mds2", trigger=landed),
        Fault("crash", "mds1", trigger=landed, restart_after=120.0),
    )
    label = f"crash of both after {server} {kind}, mds1 back at 120 s"
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    return _verdict(label, cluster, [submission], crashes, _undrained)


_REFUSED, _BACKUP = SCENARIOS["vote-refusal"], backup_name("mds1")
#: The ``n``-th replication mds1's backup receives.
_REPLICATION = partial(_trigger, "msg_recv", _BACKUP, "REPLICATE")

#: Declared recovery action -> the cell that takes it, for the actions
#: the checks above never take (a cell may take others on the way).
#: A green cell is no proof of safety: see ``still-blocked`` and
#: ``backup-unreachable``.
ACTION_CELLS: dict[str, Callable[[str], _Run]] = {
    # The abort path only.  A PrC or EP worker that gives up after its
    # coordinator committed stays PREPARED for good (a torn CREATE): no
    # one resends a presumed commit.
    "still-blocked": partial(_check_blocked, "mds2", "PREPARED"),
    # Only a coordinator that keeps COMMITTED until the ACKs resends it.
    "stray-commit": partial(_check_blocked, "mds1", "COMMITTED"),
    # LGL: the coordinator crashes while its refused vote is on the
    # wire, and the vote its redo replays is refused too.
    "redo-aborted": partial(
        _one_create,
        label="crash of mds1 at UPDATE_REQ (refused vote, twice)",
        faults=(
            *_REFUSED,
            Fault("crash", "mds1", trigger=_trigger("msg_recv", None, "UPDATE_REQ")),
            Fault("refuse", "mds2", trigger=_trigger("msg_send", "mds2", "NOT_PREPARED")),
        ),
    ),
    # LGL: a refused CREATE's second replication is its abort.
    "aborted": partial(
        _one_create,
        label="crash of mds1 at its abort's replication (refused vote)",
        faults=(*_REFUSED, Fault("crash", "mds1", trigger=_REPLICATION(2))),
    ),
    "local-committed": partial(
        _check_local,
        label="local, crash of mds1 at its commit's replication",
        faults=(Fault("crash", "mds1", trigger=_REPLICATION(1)),),
    ),
    # LGL: mds1 reboots after the CREATE, cut off from its backup for
    # longer than its snapshot fetch retries.  Known unsafe: rebooted
    # while a BEGIN it replicated is open, it serves on without redoing
    # it and tears the CREATE; this cell reboots only after the CREATE.
    "backup-unreachable": partial(
        _one_create,
        label="crash of mds1 at 1 s, its backup cut off for 5 s",
        faults=(
            Fault("crash", "mds1", at=1.0),
            Fault("link", "mds1", peer=_BACKUP, at=1.0, restore_after=5.0),
        ),
    ),
}


def _check_vocabulary(spec: ProtocolSpec, runs: Sequence[_Run]) -> Optional[str]:
    """Two vocabularies, one loop: the record kinds the runs' logs were
    asked to append must be the spec's ``log_records``, the actions
    their recoveries report its ``recovery_actions``.  The first
    undeclared one is named (check, time, actor); a declared one that
    no check reaches is dead vocabulary."""
    found = []
    for category, field, noun, did, never, declared in (
        ("log_append", "kind", "record", "appended", "written", spec.log_records),
        ("recovery", "action", "action", "taken", "taken", spec.recovery_actions),
    ):
        emitted = [
            (run.label, record)
            for run in runs
            for record in run.cluster.trace.records
            if record.category == category
        ]
        found += [
            f"undeclared {noun} {record.detail[field]} {did} in {label} "
            f"at {record.time * 1e3:.3f} ms by {record.actor}"
            for label, record in emitted
            if record.detail[field] not in declared
        ][:1]
        reached = {record.detail[field] for _label, record in emitted}
        dead = [name for name in declared if name not in reached]
        if dead:
            found.append(f"declared but never {never}: {', '.join(dead)}")
    return f"{spec.name}: vocabulary: {'; '.join(found)}" if found else None
