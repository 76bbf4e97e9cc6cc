"""Named fault scenarios: the recovery experiments' and the conformance
battery's fixed cast, each a tuple of faults against the two-server
cluster whose ``mds1`` coordinates and ``mds2`` works."""

from __future__ import annotations

from repro.faults.injector import Fault, FaultPlan
from repro.faults.triggers import TraceTrigger

#: Scenario name -> its faults.
SCENARIOS: dict[str, tuple[Fault, ...]] = {
    "worker-crash-before-commit": (
        Fault("crash", "mds2", trigger=TraceTrigger("msg_recv", where=(("kind", "UPDATE_REQ"),))),
    ),
    # The worker's first forced record is its vote: PREPARED under the
    # 2PC family, COMMITTED under 1PC.
    "worker-crash-after-prepare": (
        Fault("crash", "mds2", trigger=TraceTrigger("log_durable", "mds2", (("sync", True),))),
    ),
    "coordinator-crash-after-start": (
        Fault("crash", "mds1", trigger=TraceTrigger("log_durable", "mds1", (("kind", "STARTED"),))),
    ),
    "partition-at-vote": (
        Fault(
            "partition",
            "mds2",
            trigger=TraceTrigger("msg_recv", where=(("kind", "UPDATE_REQ"),)),
            heal_after=5.0,
        ),
    ),
    "flaky-link": (Fault("link", "mds1", peer="mds2", at=1e-3, restore_after=2.0),),
    "vote-refusal": (Fault("refuse", "mds2", at=0.0),),
}


def scenario(name: str) -> FaultPlan:
    """A fresh FaultPlan for the named scenario."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return FaultPlan(SCENARIOS[name])
