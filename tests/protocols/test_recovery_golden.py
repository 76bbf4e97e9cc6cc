"""Golden digests of the abort and recovery paths.

``tests/golden/`` otherwise pins failure-free runs only.  For every
registered protocol this pins one distributed CREATE with a crash and
restart of each node at each conformance crash point, plus the
``vote-refusal`` fault scenario: the number of trace records, the
SHA-256 of the serialised trace and the outcomes' commit flags.  A
change to a retransmission, an abort round or a recovery branch moves
a digest.  Regenerate deliberately with::

    python - <<'EOF'
    import json
    from tests.protocols.test_recovery_golden import GOLDEN, current_digests
    GOLDEN.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    EOF
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.traceio import trace_to_string
from repro.faults import scenario
from repro.mds.scenarios import distributed_create_cluster
from repro.harness.conformance import DEFAULT_CRASH_POINTS
from repro.protocols.registry import default_protocols

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "recovery_digests.json"
SETTLE = 120.0


def _digest(cluster):
    trace = trace_to_string(cluster.trace)
    return [
        len(cluster.trace.records),
        hashlib.sha256(trace.encode()).hexdigest(),
        [o.committed for o in cluster.outcomes],
    ]


def protocol_digests(protocol):
    """``{cell name: digest}`` for one protocol's crash and refusal cells."""
    cells = {}
    for victim in ("mds1", "mds2"):
        for at in DEFAULT_CRASH_POINTS:
            cluster, client = distributed_create_cluster(protocol, trace="full")
            client.submit(client.plan_create("/dir1/f0"))
            cluster.sim.run(until=cluster.sim.now + at)
            cluster.crash_server(victim)
            cluster.restart_server(victim)
            cluster.sim.run(until=cluster.sim.now + SETTLE)
            cells[f"crash-{victim}-{at * 1e3:.1f}ms"] = _digest(cluster)
    cluster, client = distributed_create_cluster(protocol, trace="full")
    scenario("vote-refusal").install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + SETTLE)
    cells["vote-refusal"] = _digest(cluster)
    return cells


def current_digests():
    return {protocol: protocol_digests(protocol) for protocol in default_protocols()}


@pytest.mark.parametrize("protocol", default_protocols())
def test_recovery_digests_match_golden(protocol):
    golden = json.loads(GOLDEN.read_text())
    assert protocol_digests(protocol) == golden[protocol], (
        f"{protocol} abort/recovery trace diverged from "
        "tests/golden/recovery_digests.json — if the change is "
        "intentional, regenerate it (see module docstring)"
    )


def test_golden_covers_every_registered_protocol():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(default_protocols())
