"""Dogfooding (`repro lint src/` is clean) and the CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import render_sarif, render_text, run_lint

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_self_lint_src_is_clean():
    # Every rule over src/.
    report = run_lint([ROOT / "src"], root=ROOT)
    assert report.files_checked > 80
    assert report.ok, "findings in src/:\n" + "\n".join(
        f"{f.location} {f.rule} {f.message}" for f in report.findings
    )


def test_cli_exit_codes(capsys):
    clean = main(["lint", str(FIXTURES / "det_good.py")])
    assert clean == 0
    dirty = main(["lint", str(FIXTURES / "det_bad.py")])
    assert dirty == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "findings, 1 files checked" in out


def test_cli_json_format(capsys):
    code = main(["lint", str(FIXTURES / "gen_bad.py"), "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert "baselined" not in doc
    assert doc["ok"] is False
    assert doc["files_checked"] == 1
    rules = {finding["rule"] for finding in doc["findings"]}
    assert {"GEN001", "GEN002"} <= rules
    assert [
        (finding["line"], finding["col"])
        for finding in doc["findings"]
        if finding["rule"] == "GEN002"
    ] == [(20, 5), (27, 9), (28, 9)]
    assert "DET001" in doc["rules"]


def test_cli_select_restricts_rules(capsys):
    code = main(["lint", str(FIXTURES / "det_bad.py"), "--select", "DET002"])
    assert code == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "DET001" not in out


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "GEN001", "GEN002",
                    "OBS001", "CACHE001", "MEM001"):
        assert rule_id in out
    # The record-vocabulary contract is checked by running it (the
    # conformance battery), not by a lint rule; RACE001 had no shared
    # state left to check in src/; read_remote_log refuses an unfenced
    # owner at run time, so no FENCE rule re-proves its call site.
    assert "PROTO" not in out
    assert "RACE001" not in out
    assert "FENCE" not in out


def test_cli_select_of_the_retired_proto_family_is_an_unknown_rule(capsys):
    for retired in ("PROTO", "RACE001", "FENCE", "FENCE002"):
        assert main(["lint", str(FIXTURES / "det_bad.py"), "--select", retired]) == 2
        assert f"unknown rule(s) ['{retired}']" in capsys.readouterr().err


def test_cli_explain_prints_catalog_entry(capsys):
    assert main(["lint", "--explain", "GEN002"]) == 0
    out = capsys.readouterr().out
    assert "GEN002" in out and "(GEN)" in out
    assert "good:" in out and "bad:" in out
    assert "self.wal.force(record)" in out


def test_cli_explain_unknown_rule_errors(capsys):
    assert main(["lint", "--explain", "NOPE999"]) == 2


def test_every_rule_has_examples_for_explain():
    from repro.lint.registry import all_rules

    for rule in all_rules():
        assert rule.good_example, f"{rule.id} lacks a good example"
        assert rule.bad_example, f"{rule.id} lacks a bad example"


@pytest.mark.parametrize(
    "flags",
    [["--baseline", "x"], ["--write-baseline"], ["--verbose"], ["--rule", "DET001"]],
)
def test_cli_has_no_suppression_or_second_select_flags(flags, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["lint", str(FIXTURES / "det_bad.py"), *flags])
    assert exit_.value.code == 2


def test_cli_sarif_format_is_valid_2_1_0(capsys):
    code = main(["lint", str(FIXTURES / "gen_bad.py"), "--format", "sarif"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    ids = [rule["id"] for rule in driver["rules"]]
    assert "GEN002" in ids and "DET001" in ids
    assert not any(rule_id.startswith(("RACE", "FENCE")) for rule_id in ids)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["fullDescription"]["text"]
    assert run["results"], "gen_bad must produce results"
    for result in run["results"]:
        assert result["level"] == "error"
        assert result["message"]["text"]
        assert ids[result["ruleIndex"]] == result["ruleId"]
        (location,) = result["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert uri.endswith("gen_bad.py")


def test_sarif_schema_validation_when_available():
    jsonschema = pytest.importorskip("jsonschema")
    report = run_lint([FIXTURES / "gen_bad.py"])
    doc = json.loads(render_sarif(report))
    # Offline structural subset of the SARIF 2.1.0 schema: the full
    # schema lives at $schema and CI's upload step validates the rest.
    schema = {
        "type": "object",
        "required": ["version", "runs"],
        "properties": {
            "version": {"const": "2.1.0"},
            "runs": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["tool", "results"],
                    "properties": {
                        "tool": {
                            "type": "object",
                            "required": ["driver"],
                            "properties": {
                                "driver": {
                                    "type": "object",
                                    "required": ["name"],
                                }
                            },
                        },
                        "results": {"type": "array"},
                    },
                },
            },
        },
    }
    jsonschema.validate(doc, schema)


def test_sarif_regions_match_the_text_locations():
    # Finding.col is already 1-based: SARIF must carry it unchanged.
    report = run_lint(sorted(FIXTURES.glob("*.py")))
    assert len(report.findings) > 20
    text = render_text(report).splitlines()[:-1]
    regions = [
        result["locations"][0]["physicalLocation"]
        for result in json.loads(render_sarif(report))["runs"][0]["results"]
    ]
    assert [
        f"{r['artifactLocation']['uri']}:{r['region']['startLine']}:"
        f"{r['region']['startColumn']}"
        for r in regions
    ] == [line.split(" ", 1)[0] for line in text]


def test_cli_syntax_error_is_a_finding(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    assert main(["lint", str(broken)]) == 1
    assert "SYN001" in capsys.readouterr().out


def test_cli_unknown_path_errors(capsys):
    assert main(["lint", str(FIXTURES / "does_not_exist.py")]) == 2
