"""Every rule family fires on its bad fixture and stays quiet on the
good one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.context import virtual_path
from repro.lint.registry import all_rules, get_rule, select_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture stem -> rule ids that must ALL fire on the bad variant.
EXPECTED = {
    "det": {"DET001", "DET002", "DET003"},
    "gen": {"GEN001", "GEN002"},
    "fence": {"FENCE001", "FENCE002"},
    "obs": {"OBS001"},
    "cache": {"CACHE001"},
    "mem": {"MEM001"},
}


def rules_hit(path: Path) -> set[str]:
    return {finding.rule for finding in run_lint([path]).findings}


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_bad_fixture_triggers_every_rule_of_family(family):
    hit = rules_hit(FIXTURES / f"{family}_bad.py")
    assert EXPECTED[family] <= hit, f"missing: {EXPECTED[family] - hit}"


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_good_fixture_is_clean(family):
    assert rules_hit(FIXTURES / f"{family}_good.py") == set()


def test_all_families_are_registered():
    families = {rule.family for rule in all_rules()}
    assert {"DET", "GEN", "FENCE", "OBS", "CACHE", "MEM"} <= families


def test_rules_have_identity_and_rationale():
    for rule in all_rules():
        assert rule.id and rule.summary and rule.rationale


def test_select_rules_by_family_and_id():
    ids = {rule.id for rule in select_rules(["DET", "FENCE002"])}
    assert ids == {"DET001", "DET002", "DET003", "FENCE002"}
    with pytest.raises(KeyError):
        select_rules(["NOPE999"])
    assert get_rule("OBS001").family == "OBS"


def test_findings_report_position_and_path():
    findings = run_lint([FIXTURES / "obs_bad.py"]).findings
    assert findings, "obs_bad fixture must produce findings"
    for finding in findings:
        assert finding.path.endswith("obs_bad.py")
        assert finding.line > 0
        assert finding.col > 0


def test_det003_respects_sorted_wrapping_and_dicts():
    # The good fixture iterates the same data sorted()-wrapped or via
    # insertion-ordered dicts; DET003 must distinguish the two.
    bad = run_lint([FIXTURES / "det_bad.py"], rules=select_rules(["DET003"])).findings
    assert len(bad) == 3
    good = run_lint([FIXTURES / "det_good.py"], rules=select_rules(["DET003"])).findings
    assert good == []


def test_gen002_flags_every_dropped_wait_once():
    # A dropped generator, a dropped inbox getter and a dropped flush.
    findings = run_lint([FIXTURES / "gen_bad.py"], rules=select_rules(["GEN002"])).findings
    assert [f.message.split("(")[0] for f in findings] == [
        "the wait probe_worker_log",
        "the wait self.recv",
        "the wait self.wal.force",
    ]
    assert all("is never yielded" in f.message for f in findings)


def test_gen002_flags_a_session_step_that_drops_a_wait():
    # Steps are plain methods: the flush and the getter each count as
    # waited on only when handed to ``self.wait(...)``.
    findings = run_lint([FIXTURES / "gen_step_bad.py"], rules=select_rules(["GEN002"])).findings
    assert [f.message.split("(")[0] for f in findings] == [
        "the wait self.p.wal.force",
        "the wait self.p.recv",
    ]


def test_gen001_flags_a_blocking_call_in_a_session_step():
    # A step is no generator, but in protocols/ and core/ every
    # function may run on the kernel.
    findings = run_lint([FIXTURES / "gen_step_bad.py"], rules=select_rules(["GEN001"])).findings
    assert [(f.line, f.message.split("(")[0]) for f in findings] == [
        (20, "blocking call time.sleep"),
    ]


def test_gen002_accepts_a_wait_handed_to_the_session():
    assert rules_hit(FIXTURES / "gen_step_good.py") == set()


def test_fence_rules_do_not_fire_in_tests_or_recovery(tmp_path):
    # The same source as fence_bad.py, but virtually located in tests/
    # and in core/recovery.py: the escape hatch is sanctioned there.
    source = (FIXTURES / "fence_bad.py").read_text(encoding="utf-8")
    for virtual, allowed in [
        ("tests/protocols/test_fixture.py", {"FENCE001", "FENCE002"}),
        ("src/repro/core/recovery.py", {"FENCE001"}),
    ]:
        relocated = source.replace(
            "# repro: path src/repro/protocols/fence_fixture.py",
            f"# repro: path {virtual}",
        )
        tmp = tmp_path / "relocated_fixture.py"
        tmp.write_text(relocated, encoding="utf-8")
        hit = rules_hit(tmp)
        assert not (hit & allowed), f"{virtual} must allow {allowed}, got {hit}"


def test_virtual_path_directive():
    assert virtual_path("# repro: path src/repro/net/x.py\n") == "src/repro/net/x.py"
    assert virtual_path("print('hi')\n") is None
