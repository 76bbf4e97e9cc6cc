"""Golden digests of the 48 ledger fault schedules.

The fault watcher wakes on trace growth instead of polling, which is
only legal if every fault still fires at the bit-identical virtual
instant.  This pins, per campaign cell, the SHA-256 of the whole trace
stream (``time.hex()``, category, actor, sorted detail), the verdict
and every outcome's ``replied_at.hex()`` for the schedules of the
ledger's ``fault-campaign`` workload.  Captured at the last commit that
still polled.  Regenerate deliberately with::

    python - <<'EOF'
    import json
    from tests.campaign.test_campaign_golden import GOLDEN, protocol_digests, PROTOCOLS
    GOLDEN.write_text(json.dumps({p: protocol_digests(p) for p in PROTOCOLS}, indent=1) + "\n")
    EOF
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.exec import campaign_grid

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "campaign_digests.json"
PROTOCOLS = ("1PC", "PrN")


def cell_digest(cluster, verdict):
    digest = hashlib.sha256()
    for rec in cluster.trace.records:
        line = (rec.time.hex(), rec.category, rec.actor, sorted(rec.detail.items()))
        digest.update(repr(line).encode())
    digest.update(json.dumps(verdict, sort_keys=True).encode())
    digest.update(repr([o.replied_at.hex() for o in cluster.outcomes]).encode())
    return digest.hexdigest()


def protocol_digests(protocol):
    """One digest per pinned campaign cell, in grid order: each cell
    run as the executor runs it, but with the hub in full mode (the
    stream is what the digest hashes)."""
    return [
        cell_digest(
            *run_campaign_cell(
                CampaignSchedule.from_json(spec.campaign),
                params=spec.seeded_params(),
                trace="full",
            )
        )
        for spec in campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)
    ]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_campaign_digests_match_golden(protocol):
    golden = json.loads(GOLDEN.read_text())[protocol]
    current = protocol_digests(protocol)
    moved = [i for i, (a, b) in enumerate(zip(current, golden)) if a != b]
    assert len(current) == len(golden) and not moved, (
        f"{protocol} campaign cells {moved} diverged from "
        "tests/golden/campaign_digests.json: a fault fired at another "
        "instant or a trace record moved"
    )
