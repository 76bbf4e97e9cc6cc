"""Every registered protocol must pass the conformance kit."""

import pytest

from repro.campaign.runner import run_fault_cell
from repro.faults import scenario
from repro.harness import conformance
from repro.harness.conformance import ConformanceReport, check_protocol
from repro.mds.cluster import Cluster
from repro.mds.scenarios import distributed_create_cluster
from repro.protocols import default_protocols

#: Checks per protocol: liveness, abort, the timed crash sweep (2
#: victims x 4 points), 2 fault scenarios (vote-refusal is the abort
#: check's cell), isolation, local and the vocabulary verdict (15);
#: the fan-out crash at 4 points for multi-worker engines; one crash
#: after each distinct (server, kind) the liveness and abort runs make
#: durable.
CHECKS_RUN = {
    # mds1 STARTED, UPDATES, PREPARED, COMMITTED, ENDED; mds2 UPDATES,
    # PREPARED, COMMITTED; mds1 ABORTED (refused vote).
    "PrN": 15 + 4 + 9,
    # mds1 writes ENDED only after an abort.
    "PrC": 15 + 4 + 9,
    "EP": 15 + 4 + 9,
    # Presumed abort forces no ABORTED record.
    "PrA": 15 + 4 + 8,
    # The acceptors' BALLOT records land on no server.
    "PC": 15 + 4 + 9,
    # mds1 STARTED, REDO, UPDATES, COMMITTED; mds2 UPDATES, COMMITTED,
    # ENDED; mds1 ABORTED (refused vote).
    "1PC": 15 + 8,
    "1PC-N": 15 + 4 + 8,
    # Logless: no record lands.
    "LGL": 15,
}


@pytest.mark.parametrize("name", sorted(default_protocols()))
def test_registered_protocol_conforms(name):
    report = check_protocol(name)
    assert report.ok, f"{name} failed conformance: {report.failures}"
    assert report.checks_run == CHECKS_RUN[name]


def test_report_records_failures():
    assert ConformanceReport("X", failures=(), checks_run=2).ok
    report = ConformanceReport("X", failures=("broken",), checks_run=2)
    assert not report.ok
    assert report.failures == ("broken",)
    assert report.checks_run == 2


@pytest.mark.parametrize("ticking", [False, True], ids=["schedule-runs-dry", "timer-keeps-it-alive"])
def test_isolation_check_records_a_lost_reply_instead_of_crashing_or_hanging(monkeypatch, ticking):
    """One of the six replies never arrives.  An unbudgeted stepping
    wait ends the battery with ``SimulationError("step() on an empty
    schedule")`` when the schedule runs dry, and never ends while a
    periodic timer keeps it alive."""
    record_outcome = Cluster.record_outcome
    fresh = conformance.distributed_create_cluster
    answered = []

    def lossy(self, outcome):
        answered.append(outcome)
        if len(answered) != 3:
            record_outcome(self, outcome)

    def fresh_with_tick(protocol):
        cluster, client = fresh(protocol)

        def tick(_value=None):
            cluster.sim.after(1.0, tick)

        if ticking:
            tick()
        return cluster, client

    monkeypatch.setattr(Cluster, "record_outcome", lossy)
    monkeypatch.setattr(conformance, "distributed_create_cluster", fresh_with_tick)
    failure = conformance._check_isolation("1PC").failure
    assert len(answered) == 6
    # The lost reply is the check's one finding; the oracle still ran.
    assert failure == "1PC: isolation: only 5/6 operations answered within 300 s"


#: A 1PC worker's log never drains after ``partition-at-vote``: its one
#: ACK_REQ at the 1.15 s restart is dropped by the partition, which
#: heals only at 5 s, and the request times out at 6.15 s without a
#: retry, so mds2 keeps UPDATES+COMMITTED.  The scenario check itself
#: expects only the oracle's verdict.
_UNDRAINED = pytest.mark.xfail(
    strict=True, reason="1PC worker sends one ACK_REQ; the partition drops it"
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_UNDRAINED) if name in ("1PC", "1PC-N") else name
        for name in sorted(default_protocols())
    ],
)
def test_partition_at_vote_drains_every_log(name):
    cluster, client = distributed_create_cluster(name)
    submission = (0.0, client, client.plan_create("/dir1/f0"))
    assert run_fault_cell(cluster, [submission], scenario("partition-at-vote")) == []
    assert conformance._undrained(cluster) is None
