"""Text, JSON and SARIF renderers for lint reports."""

from __future__ import annotations

import json
from typing import Any

from repro.lint.engine import LintReport
from repro.lint.findings import Finding
from repro.lint.registry import all_rules

REPORT_SCHEMA_VERSION = 2

#: SARIF 2.1.0 — the static-analysis interchange format GitHub code
#: scanning ingests (via codeql-action/upload-sarif in CI).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: LintReport) -> str:
    """Human-readable report, one ``path:line:col RULE message`` per line."""
    lines: list[str] = []
    for finding in report.findings:
        lines.append(f"{finding.location} {finding.rule} {finding.message}")
    noun = "finding" if len(report.findings) == 1 else "findings"
    summary = (
        f"{len(report.findings)} {noun}, {report.files_checked} files checked"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact format)."""
    doc: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "ok": report.ok,
        "files_checked": report.files_checked,
        "findings": [finding.to_dict() for finding in report.findings],
        "rules": {rule.id: rule.summary for rule in all_rules()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sarif_result(finding: Finding, rule_index: dict[str, int]) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log for GitHub code-scanning upload: every finding
    is an ``error`` result at its 1-based ``line:col``."""
    rules = all_rules()
    rule_index = {rule.id: index for index, rule in enumerate(rules)}
    descriptors = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = [_sarif_result(finding, rule_index) for finding in report.findings]
    doc: dict[str, Any] = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": descriptors,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
