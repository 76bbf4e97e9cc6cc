"""Every registered protocol must pass the conformance kit."""

import pytest

from repro.harness import conformance
from repro.harness.conformance import ConformanceReport, check_protocol
from repro.mds.cluster import Cluster
from repro.protocols import default_protocols

#: Checks per protocol: liveness, abort, the timed crash sweep (2
#: victims x 4 points), 3 fault scenarios, isolation, local and the
#: vocabulary verdict (16); the fan-out crash at 4 points for
#: multi-worker engines; one crash after each distinct (server, kind)
#: the liveness and abort runs make durable.
CHECKS_RUN = {
    # mds1 STARTED, UPDATES, PREPARED, COMMITTED, ENDED; mds2 UPDATES,
    # PREPARED, COMMITTED; mds1 ABORTED (refused vote).
    "PrN": 16 + 4 + 9,
    # mds1 writes ENDED only after an abort.
    "PrC": 16 + 4 + 9,
    "EP": 16 + 4 + 9,
    # Presumed abort forces no ABORTED record.
    "PrA": 16 + 4 + 8,
    # The acceptors' BALLOT records land on no server.
    "PC": 16 + 4 + 9,
    # mds1 STARTED, REDO, UPDATES, COMMITTED; mds2 UPDATES, COMMITTED,
    # ENDED; mds1 ABORTED (refused vote).
    "1PC": 16 + 8,
    "1PC-N": 16 + 4 + 8,
    # Logless: no record lands.
    "LGL": 16,
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
    assert failure == "1PC: isolation: only 5/6 operations answered within 120 s"
