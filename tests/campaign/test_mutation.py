"""Mutation self-tests: the nets must catch broken protocols.

``1PC-BRK`` votes before forcing its commit record (see
:mod:`tests.campaign.broken`).  A seeded campaign block must flag it,
the shrinker must reduce the catch to a tiny schedule, and the emitted
repro document must replay to the same violation.  The same block on
the real 1PC stays green — the checker has no false positives.
``1PC-EAR`` answers "aborted" before its probe decides; only the
oracle's aborted-residue pass sees it.  The four contract breakers each
fail the conformance battery in the check named for what they break.

Everything here runs in-process (``execute_spec``): ``temporary_protocol``
registrations don't cross process-pool boundaries.
"""

import pytest

from repro.campaign.schedule import CampaignSchedule
from repro.campaign.shrink import shrink_spec, violation_kinds
from repro.exec import campaign_grid
from repro.exec.runners import execute_spec
from repro.harness.conformance import check_protocol
from repro.protocols.registry import temporary_protocol
from tests.campaign.broken import (
    BROKEN_NAME,
    CONTRACT_BREAKERS,
    EAR_NAME,
    broken_spec,
    early_abort_spec,
)

#: The block the self-test sweeps; run 11 is the first catch.
RUNS, SEED = 12, 0


@pytest.mark.slow
def test_campaign_catches_and_shrinks_early_vote_mutation():
    with temporary_protocol(broken_spec()):
        caught = None
        for spec in campaign_grid(BROKEN_NAME, runs=RUNS, seed=SEED):
            kinds = violation_kinds(execute_spec(spec))
            if kinds:
                caught = (spec, kinds)
                break
        assert caught is not None, "campaign missed the broken protocol"
        spec, kinds = caught
        assert "atomicity" in kinds

        doc = shrink_spec(spec)
        shrunk = CampaignSchedule.from_json(doc["spec"]["campaign"])
        # Minimal repro: at most two faults (one crash in the
        # vote-to-force window suffices in practice).
        assert len(shrunk.faults) <= 2
        assert doc["verdict"]["violations"]

        # The document replays to the same violation kind.
        from repro.campaign.shrink import replay_repro

        _cell, reproduced = replay_repro(doc)
        assert reproduced


@pytest.mark.slow
def test_same_block_is_green_on_real_1pc():
    for spec in campaign_grid("1PC", runs=RUNS, seed=SEED):
        assert violation_kinds(execute_spec(spec)) == set(), spec.point


def test_conformance_catches_the_early_abort_reply_as_aborted_residue():
    """A silent worker whose commit record is durable: the mutant tells
    the client "aborted", then commits after the fence and log read."""
    with temporary_protocol(early_abort_spec()):
        report = check_protocol(EAR_NAME)
    assert report.failures == (
        "1PC-EAR: scenario 'partition-at-vote': [aborted-residue] /dir1/f0: "
        "CREATE answered aborted, 2/2 effects durable",
    )


#: Engine -> (the checks it fails, a phrase the decisive failure holds).
BREAKER_VERDICTS = {
    # The 1PC recovery scan has no arm for the undeclared PREPARED, so
    # a crash after it also leaves the record behind.
    "XCHAT": (
        ("crash of mds1 after PREPARED", "vocabulary"),
        "vocabulary: undeclared record PREPARED appended in liveness",
    ),
    # Only the local check reaches ``run_local``.
    "XNOISY": (("vocabulary",), "vocabulary: undeclared record COMMITTED appended in local"),
    # Three timed coordinator crashes tear the CREATE; every crash
    # leaves its records behind.
    "XFORGET": (
        (
            "crash of mds1 at 2.0 ms",
            "crash of mds1 at 4.0 ms",
            "crash of mds1 at 7.0 ms",
            "crash of mds2 at 7.0 ms",
            "crash of mds1 after STARTED",
            "crash of mds1 after REDO",
            "crash of mds2 after UPDATES",
            "crash of mds2 after COMMITTED",
        ),
        "crash of mds1 at 2.0 ms: logs not drained: mds1 keeping REDO+STARTED, "
        "mds2 keeping COMMITTED+UPDATES; [invariant]",
    ),
    "XPrN": (
        ("crash of mds1 after ABORTED (refused vote)",),
        "logs not drained: mds1 keeping ABORTED+STARTED",
    ),
}


@pytest.mark.parametrize("name", sorted(BREAKER_VERDICTS))
def test_each_contract_breaker_fails_its_named_check(name):
    with temporary_protocol(CONTRACT_BREAKERS[name]):
        report = check_protocol(name)
    checks, phrase = BREAKER_VERDICTS[name]
    assert tuple(failure.split(": ")[1] for failure in report.failures) == checks
    assert any(phrase in failure for failure in report.failures), report.failures
    if name == "XFORGET":  # the timed sweep's coordinator crashes
        assert all("(torn)" in failure for failure in report.failures[:3])


#: Cells that once reported a lock-precedence cycle after a coordinator
#: reboot (found while sizing the perf ledger): (grid arguments, cell).
REBOOT_CELLS = [
    (dict(runs=24, seed=9, n_ops=12, n_clients=2), 14),
    (dict(runs=24, seed=18, n_ops=12, n_clients=2), 16),
    (dict(runs=24, seed=19, n_ops=12, n_clients=2), 22),
    (dict(runs=12, seed=1, n_ops=48, n_clients=4), 2),
]


@pytest.mark.parametrize("grid, index", REBOOT_CELLS)
def test_coordinator_reboot_is_not_a_conflict_cycle(grid, index):
    cell = execute_spec(campaign_grid("1PC", **grid)[index])
    assert cell.verdict["ok"], cell.verdict["violations"]
