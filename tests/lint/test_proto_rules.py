"""PROTO001-003: registry-driven spec-vs-code conformance.

The plug-in run lints ``src/repro`` *plus* the plug-in fixture, so one
report shows that each deliberately broken ``temporary_protocol``
plug-in produces exactly its one finding while every real registered
protocol stays clean (the self-lint test in ``test_self_and_cli.py``
holds ``src/`` alone to zero findings).
"""

from __future__ import annotations

import importlib.util
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.registry import select_rules
from repro.protocols.registry import (
    CAP_LOGLESS,
    ProtocolSpec,
    record_vocabulary,
    specs,
    temporary_protocol,
)

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).parent / "fixtures" / "proto_plugins.py"

#: The 1PC vocabulary the fixture subclasses inherit emissions from.
ONEPC_RECORDS = ("STARTED", "UPDATES", "REDO", "COMMITTED", "ABORTED", "ENDED")


@pytest.fixture(scope="module")
def plugin_module():
    spec = importlib.util.spec_from_file_location("proto_plugins_fixture", FIXTURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _proto_report(paths):
    return run_lint(paths, rules=select_rules(["PROTO"]), root=ROOT)


def test_record_vocabulary_reflects_every_spec():
    vocab = record_vocabulary()
    assert set(vocab) == {spec.name for spec in specs()}
    assert vocab["LGL"] == ()
    assert "REDO" in vocab["1PC"]


def test_each_broken_plugin_yields_exactly_one_finding(plugin_module):
    with ExitStack() as stack:
        stack.enter_context(
            temporary_protocol(
                ProtocolSpec(
                    name="XCHAT",
                    engine=plugin_module.ChattyCommitProtocol,
                    log_records=ONEPC_RECORDS,
                )
            )
        )
        stack.enter_context(
            temporary_protocol(
                ProtocolSpec(
                    name="XFORGET",
                    engine=plugin_module.ForgetfulProtocol,
                    log_records=ONEPC_RECORDS,
                )
            )
        )
        stack.enter_context(
            temporary_protocol(
                ProtocolSpec(
                    name="XNOISY",
                    engine=plugin_module.NoisyLoglessProtocol,
                    log_records=(),
                    capabilities=frozenset({CAP_LOGLESS}),
                )
            )
        )
        report = _proto_report([ROOT / "src" / "repro", FIXTURE])
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    assert {len(v) for v in by_rule.values()} == {1}
    assert set(by_rule) == {"PROTO001", "PROTO002", "PROTO003"}
    assert "PREPARED" in by_rule["PROTO001"][0].message
    assert "XCHAT" in by_rule["PROTO001"][0].message
    assert "ABORTED" in by_rule["PROTO002"][0].message
    assert "XFORGET" in by_rule["PROTO002"][0].message
    assert "XNOISY" in by_rule["PROTO003"][0].message
    for findings in by_rule.values():
        assert findings[0].path.endswith("proto_plugins.py")


def test_plugins_outside_the_linted_set_are_skipped(plugin_module):
    # Same registration, but the fixture file is NOT linted (nor is any
    # engine's): the engines resolve to no project class and must be
    # skipped silently.
    with temporary_protocol(
        ProtocolSpec(
            name="XCHAT",
            engine=plugin_module.ChattyCommitProtocol,
            log_records=ONEPC_RECORDS,
        )
    ):
        report = _proto_report([ROOT / "src" / "repro" / "protocols" / "registry.py"])
    assert report.findings == []
