"""End-to-end tests for the ``repro campaign`` CLI."""

import json

import pytest

from repro.cli import main


def run_cli(argv):
    return main(list(argv))


def test_campaign_run_single_protocol_json(capsys, tmp_path):
    out = tmp_path / "CAMPAIGN.json"
    code = run_cli(
        ["campaign", "run", "--protocol", "1PC", "--runs", "3", "--seed", "0",
         "--json", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "Fault campaign" in text
    doc = json.loads(out.read_text())
    assert doc["kind"] == "campaign"
    assert len(doc["cells"]) == 3
    for cell in doc["cells"]:
        assert cell["verdict"]["violations"] == []
    # meta is dropped: the document is canonical.
    assert "meta" not in doc


def test_campaign_run_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["campaign", "run", "--protocol", "EP", "--runs", "2",
                    "--json", str(a)]) == 0
    capsys.readouterr()
    assert run_cli(["campaign", "run", "--protocol", "EP", "--runs", "2",
                    "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_campaign_shrink_clean_block_reports_nothing(capsys, tmp_path):
    code = run_cli(
        ["campaign", "shrink", "--protocol", "1PC", "--runs", "2",
         "--out", str(tmp_path / "repro.json")]
    )
    assert code == 0
    assert "nothing to shrink" in capsys.readouterr().out


def test_campaign_replay_roundtrip(capsys, tmp_path):
    """shrink → replay through the CLI, on the broken protocol."""
    from tests.conftest import temporary_protocol
    from tests.campaign.broken import BROKEN_NAME, broken_spec

    out = tmp_path / "repro.json"
    with temporary_protocol(broken_spec()):
        code = run_cli(
            ["campaign", "shrink", "--protocol", BROKEN_NAME, "--runs", "12",
             "--run-index", "11", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        capsys.readouterr()
        code = run_cli(["campaign", "replay", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["reproduced"] is True
        assert "atomicity" in doc["expected"]


def test_campaign_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        run_cli(["campaign", "run", "--protocol", "3PC"])
