"""Every registered protocol must pass the conformance kit."""

import pytest

from repro.protocols import default_protocols
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
