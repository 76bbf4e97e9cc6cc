"""Replay the committed golden minimal repro.

``golden_minimal_repro.json`` was produced by the campaign shrinker
from the early-vote mutation (``tests.campaign.broken``): one crash in
the worker's vote-to-force window, one operation, one client.  Keeping
it in the tree pins two things: the repro document format stays
loadable, and the shrunk schedule still tears the transaction on the
broken engine.
"""

import json
import pathlib

import pytest

from repro.campaign.schedule import CampaignSchedule
from repro.campaign.shrink import load_repro, replay_repro, violation_kinds
from repro.faults import ScheduleFormatError
from repro.protocols.registry import temporary_protocol
from tests.campaign.broken import broken_spec

GOLDEN = pathlib.Path(__file__).parent / "golden_minimal_repro.json"


def test_golden_repro_is_minimal():
    doc = load_repro(str(GOLDEN))
    schedule = CampaignSchedule.from_json(doc["spec"]["campaign"])
    assert len(schedule.faults) == 1
    assert schedule.n_ops == 1
    assert schedule.n_clients == 1
    (fault,) = schedule.faults
    assert fault.kind == "crash"
    assert fault.trigger is not None
    assert fault.trigger.category == "msg_send"


def test_golden_repro_replays():
    doc = load_repro(str(GOLDEN))
    with temporary_protocol(broken_spec()):
        cell, reproduced = replay_repro(doc)
    assert reproduced
    recorded = {v["check"] for v in doc["verdict"]["violations"]}
    assert violation_kinds(cell) == recorded == {
        "atomicity", "durability", "invariant", "serializability"
    }


def _damaged(tmp_path, damage):
    doc = json.loads(GOLDEN.read_text())
    damage(doc)
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _misspell_a_fault_field(doc):
    schedule = json.loads(doc["spec"]["campaign"])
    schedule["faults"][0]["restart_afer"] = schedule["faults"][0].pop("restart_after")
    doc["spec"]["campaign"] = json.dumps(schedule)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_misspell_a_fault_field, r"repro\.json: spec\.campaign\.faults\[0\]\.restart_afer: unknown"),
        (lambda d: d["spec"].update(campaign="{"), r"repro\.json: spec\.campaign: not JSON"),
        (lambda d: d["spec"].pop("campaign"), r"repro\.json: spec: campaign kind requires"),
        (lambda d: (d["spec"].update(kind="burst"), d["spec"].pop("campaign")),
         r"spec\.campaign: missing"),
        (lambda d: d["spec"].pop("protocol"), r"repro\.json: spec\.protocol: missing"),
        # A misspelt optional key used to be dropped: a *different* cell ran.
        (lambda d: d["spec"].update(fanuot=2), r"repro\.json: spec\.fanuot: unknown field"),
        (lambda d: d["spec"].update(n="6"), r"repro\.json: spec\.n: wrong type str"),
        (lambda d: d["spec"]["params"]["network"].update(latency=None),
         r"repro\.json: spec\.params\.network\.latency: wrong type NoneType"),
        (lambda d: d.pop("verdict"), r"repro\.json: verdict: missing"),
        (lambda d: d.update(verdikt={}), r"repro\.json: verdikt: unknown field"),
        (lambda d: d.update(shrink=[]), r"repro\.json: shrink: wrong type list"),
        (lambda d: d["verdict"].update(violations=[{}]), r"verdict\.violations: expected a list"),
        (lambda d: d["verdict"].update(violations=3), r"verdict\.violations: expected a list"),
        (lambda d: d.update(kind="campaign"), r"repro\.json: not a campaign repro document"),
        (lambda d: d.update(schema_version=2), r"repro\.json: unsupported repro schema 2"),
    ],
)
def test_loader_names_the_file_and_the_field(tmp_path, damage, message):
    with pytest.raises(ScheduleFormatError, match=message):
        load_repro(_damaged(tmp_path, damage))


def test_replay_prints_a_format_error_and_exits_2(tmp_path, capsys):
    from repro.cli import main

    assert main(["campaign", "replay", _damaged(tmp_path, _misspell_a_fault_field)]) == 2
    captured = capsys.readouterr()
    assert "spec.campaign.faults[0].restart_afer: unknown field" in captured.err
    assert captured.out == ""
    misspelt_spec = _damaged(tmp_path, lambda d: d["spec"].update(fanuot=2))
    assert main(["campaign", "replay", misspelt_spec]) == 2
    assert "spec.fanuot: unknown field" in capsys.readouterr().err
    (tmp_path / "list.json").write_text("[]")
    assert main(["campaign", "replay", str(tmp_path / "list.json")]) == 2
