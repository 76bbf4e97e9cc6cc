"""The artifact table, the report it prints and the document held to it.

One module-scoped measurement of every artifact is shared by all the
tests; ``EXPERIMENTS.md`` at the repository root is the document.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.harness import report
from repro.harness.artifacts import ARTIFACTS

ROOT = Path(repro.__file__).resolve().parents[2]
DOCUMENT = ROOT / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def measured():
    return report.measure()


@pytest.fixture(scope="module")
def report_text(measured):
    return "\n\n".join(a.render(measured[a.name]) for a in ARTIFACTS)


@pytest.fixture
def check(measured, monkeypatch, tmp_path, capsys):
    """``repro report --check`` on ``text``, with the shared measurement."""
    monkeypatch.setattr(report, "measure", lambda: measured)

    def run(text, flag="--check"):
        path = tmp_path / "doc.md"
        path.write_text(text, encoding="utf-8")
        code = main(["report", flag, str(path)])
        return code, capsys.readouterr().out, path.read_text(encoding="utf-8")

    return run


def test_report_contains_all_sections(report_text):
    header = report.generate_report(names=[])
    assert "reproduction report" in header
    for title in ("Table I", "Figure 6", "Analytical model", "Figure 5 — 1PC timeline",
                  "Recovery after a crash 2 ms", "decision latency", "vs network latency",
                  "Presumption crossover", "Group-commit ablation", "Migration vs"):
        assert title in report_text


def test_report_states_parameters():
    header = report.generate_report(names=[])
    assert "network 100 us" in header
    assert "log device 400 KB/s" in header


def test_report_shows_measured_table1_agreement(report_text):
    assert "(3, 1) [(3, 1)]" in report_text  # 1PC totals match
    assert "(5, 1) [(5, 1)]" in report_text  # PrN totals match
    assert "(11, 1) [(11, 1)]" in report_text  # and the extension rows are there


def test_report_gains_present(report_text):
    assert "% vs PrN)" in report_text
    assert "1PC   |" in report_text and "LGL   |" in report_text


def test_the_table_is_the_closed_list_experiments_md_reports():
    assert [a.name for a in ARTIFACTS] == [
        "table1", "figure6", "model", "timelines", "recovery", "detection", "sweep-latency",
        "sweep-disk", "sweep-burst", "abort-rate", "presumed", "batching", "utilization",
        "scaling", "group-commit", "placement", "migration",
    ]


def test_every_artifact_has_claims_and_they_hold(measured):
    for artifact in ARTIFACTS:
        assert artifact.claims, artifact.name
        for text, holds in artifact.claims:
            assert holds(measured[artifact.name]), f"{artifact.name}: {text}"


def test_a_failed_claim_is_reported_by_its_text(measured):
    doomed = ARTIFACTS[1]
    forced = replace(doomed, claims=(("the moon is made of cheese", lambda data: False),))
    artifacts = [forced if a is doomed else a for a in ARTIFACTS]
    text = DOCUMENT.read_text(encoding="utf-8")
    assert report.reconcile(text, measured, artifacts) == (
        text, ["figure6: claim no longer holds: the moon is made of cheese"]
    )


def test_cli_report(check):
    """``--check`` passes on the committed file."""
    code, out, _text = check(DOCUMENT.read_text(encoding="utf-8"))
    assert code == 0, out
    assert f"{len(ARTIFACTS)} artifacts current" in out


@pytest.mark.parametrize("artifact", ["figure6", "recovery", "migration"])
def test_one_changed_digit_fails_the_check_and_names_the_artifact(check, artifact):
    lines = DOCUMENT.read_text(encoding="utf-8").split("\n")
    start = lines.index(f"<!-- repro:report {artifact} -->")
    at = next(i for i in range(start + 2, len(lines)) if any(c.isdigit() for c in lines[i]))
    original = lines[at]
    digit = next(c for c in original if c.isdigit())
    lines[at] = original.replace(digit, str((int(digit) + 1) % 10), 1)
    code, out, _text = check("\n".join(lines))
    assert code == 1
    assert f"repro report --only {artifact}" in out
    assert f"-{lines[at]}" in out and f"+{original}" in out
    assert out.count("+++") == 1  # and no other artifact


def test_a_deleted_block_and_an_unknown_block_are_named(check):
    text = DOCUMENT.read_text(encoding="utf-8")
    code, out, _text = check(text.replace("<!-- repro:report scaling -->", ""))
    assert code == 1 and "artifact 'scaling' has no block" in out
    code, out, _text = check(text.replace("report scaling -->", "report scalling -->"))
    assert code == 1
    assert "block names no artifact: 'scalling'" in out and "'scaling' has no block" in out


@pytest.mark.parametrize("flag", ["--check", "--update"])
def test_a_malformed_marker_is_one_error_naming_the_line(check, flag):
    text = DOCUMENT.read_text(encoding="utf-8")
    lines = text.split("\n")
    last = max(i for i, line in enumerate(lines) if line.startswith("<!-- repro:report"))
    close = next(i for i in range(last + 2, len(lines)) if lines[i].startswith("```"))
    unterminated = "\n".join(
        line for i, line in enumerate(lines) if i != close and not (i > close and "```" in line)
    )
    duplicated = text + "\n<!-- repro:report table1 -->\n```\n```\n"
    unfenced = text.replace("<!-- repro:report model -->\n", "<!-- repro:report model -->\n\n")
    for broken, reason in (
        (unterminated, f"line {last + 1}: the block of 'migration' is never closed"),
        (duplicated, "a second block for 'table1' (the first is on line "),
        (unfenced, "no ``` fence opens under the 'model' marker"),
    ):
        code, out, after = check(broken, flag)
        assert code == 1
        assert reason in out and len(out.strip().splitlines()) == 1
        assert after == broken  # --update writes nothing it could not parse


def test_update_reproduces_the_committed_file_from_emptied_blocks(check, measured):
    committed = DOCUMENT.read_text(encoding="utf-8")
    lines, emptied, inside = committed.split("\n"), [], False
    for i, line in enumerate(lines):
        opens = i > 0 and lines[i - 1].startswith("<!-- repro:report") and line == "```"
        if inside and line == "```":
            inside = False
        if not inside:
            emptied.append(line)
        inside = inside or opens
    assert len(emptied) < len(lines) - 100
    code, out, updated = check("\n".join(emptied), "--update")
    assert code == 0, out
    assert updated == committed
    assert report.reconcile(updated, measured) == (updated, [])  # a fixed point


def test_rendering_is_identical_under_different_hash_seeds():
    def render(seed):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "report"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    first = render("1")
    assert first == render("2")
    assert "Migration vs distributed 1PC" in first
