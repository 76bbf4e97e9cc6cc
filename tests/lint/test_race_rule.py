"""RACE001: stale shared-state writes across DES yield points."""

from __future__ import annotations

from pathlib import Path

from repro.lint import run_lint
from repro.lint.registry import select_rules

FIXTURES = Path(__file__).parent / "fixtures"


def _race_report(*paths):
    return run_lint(list(paths), rules=select_rules(["RACE"]))


def test_racy_fixture_reports_the_stale_write():
    report = _race_report(FIXTURES / "race_bad.py")
    assert [f.rule for f in report.findings] == ["RACE001"]
    message = report.findings[0].message
    assert "TicketCounter.issued" in message
    assert "'snapshot'" in message
    assert "issuer()" in message and "redeemer()" in message


def test_yield_separated_fixture_is_clean():
    # Identical processes, but the read happens after the yield: the
    # read-modify-write is atomic at kernel granularity.
    report = _race_report(FIXTURES / "race_good.py")
    assert report.findings == []
