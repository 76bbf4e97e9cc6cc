"""Every registered protocol must pass the conformance kit."""

import pytest

from repro.mds.cluster import Cluster
from repro.protocols import conformance, default_protocols
from repro.protocols.conformance import ConformanceReport, check_protocol


@pytest.mark.parametrize("name", sorted(default_protocols()))
def test_registered_protocol_conforms(name):
    report = check_protocol(name)
    assert report.ok, f"{name} failed conformance: {report.failures}"
    # The battery is substantial: liveness (4) + abort (5) + crash
    # sweep (2 victims x 4 points x 2 checks) + fault scenarios
    # (3 scenarios x 3 checks) + isolation (3).
    assert report.checks_run >= 25


def test_report_records_failures():
    report = ConformanceReport("X")
    report.record(True, "fine")
    report.record(False, "broken")
    assert not report.ok
    assert report.failures == ["broken"]
    assert report.checks_run == 2


@pytest.mark.parametrize("ticking", [False, True], ids=["schedule-runs-dry", "timer-keeps-it-alive"])
def test_isolation_check_records_a_lost_reply_instead_of_crashing_or_hanging(monkeypatch, ticking):
    """One of the six replies never arrives.  An unbudgeted stepping
    wait ends the battery with ``SimulationError("step() on an empty
    schedule")`` when the schedule runs dry, and never ends while a
    periodic timer keeps it alive."""
    record_outcome = Cluster.record_outcome
    fresh = conformance._fresh
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
    monkeypatch.setattr(conformance, "_fresh", fresh_with_tick)
    report = ConformanceReport("1PC")
    conformance._check_isolation("1PC", report)
    assert len(answered) == 6
    assert [f for f in report.failures if "only 5/6 operations answered within 120 s" in f]
    # The failure is recorded and the three checks after it still ran.
    assert report.checks_run == 4
