"""Campaign schedules: seeded, serialisable fault + workload shapes.

A :class:`CampaignSchedule` is the declarative unit the campaign
explores — one workload shape (operation count, client count,
hot-directory ratio) plus a tuple of :class:`FaultSpec` entries.  Its
canonical JSON form rides inside the executor's ``RunSpec`` (the
``campaign`` field), so schedules inherit the cache/identity
discipline of every other experiment cell: same schedule, same
fingerprint ⇒ warm cache hit.

:func:`generate_schedule` extends ``random_fault_plan``'s kind menu
with trace-triggered faults aimed at the protocol-critical windows of
:mod:`repro.campaign.triggers` and a disk-stall fault, all drawn from
named :class:`~repro.sim.RngRegistry` streams so the schedule for a
seed is byte-stable regardless of evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.campaign.triggers import TraceTrigger, window
from repro.faults.injector import (
    CrashFault,
    DiskStallFault,
    Fault,
    FaultPlan,
    LinkFault,
    PartitionFault,
    VoteRefusalFault,
)
from repro.sim import RngRegistry

FAULT_KINDS = ("crash", "partition", "link", "refuse", "stall")

#: Poll-grid spacing for campaign trace triggers: fine enough (0.5 ms)
#: to land inside the ~5 ms vote/force windows the triggers aim at.
CAMPAIGN_POLL_INTERVAL = 0.5e-3

#: Absolute virtual time past which still-untriggered window faults
#: are abandoned.  Every protocol-critical window of a campaign
#: workload opens within the first few seconds.  Not a cost bound (a
#: quiet trace costs nothing to watch): it decides which faults fire.
CAMPAIGN_WATCH_HORIZON = 10.0

#: Timed fault kinds (fire at an absolute time) and window-targeted
#: kinds (fire when the named trigger matches), the generator's menu.
TIMED_KINDS = ("crash", "partition", "link", "refuse", "stall")
WINDOW_KINDS = (
    "crash@at-vote",
    "crash@after-vote",
    "crash@after-fence",
    "crash@during-recovery",
    "partition@at-vote",
    "stall@on-wal-flush",
)


@dataclass(frozen=True)
class FaultSpec:
    """One serialisable fault: a kind, a victim, and a trigger.

    Exactly one of ``at`` (absolute virtual time) and ``trigger``
    (a :class:`TraceTrigger`) must be set, mirroring the runtime
    :class:`~repro.faults.injector.Fault` contract.
    """

    kind: str
    node: str = ""
    #: Second endpoint (link faults only).
    peer: str = ""
    at: Optional[float] = None
    trigger: Optional[TraceTrigger] = None
    restart_after: Optional[float] = None
    heal_after: Optional[float] = None
    restore_after: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if (self.at is None) == (self.trigger is None):
            raise ValueError("exactly one of 'at' or 'trigger' must be given")
        if not self.node:
            raise ValueError(f"{self.kind} fault requires a node")
        if self.kind == "link" and not self.peer:
            raise ValueError("link fault requires a peer")

    def build(self) -> Fault:
        """A fresh armable fault.

        Compiled trigger predicates are stateful (they count the hits
        pushed to them), so every run must build its own faults.
        """
        when = self.trigger.compile() if self.trigger is not None else None
        if self.kind == "crash":
            return CrashFault(
                node=self.node, restart_after=self.restart_after, at=self.at, when=when
            )
        if self.kind == "partition":
            return PartitionFault(
                groups=[frozenset({self.node})],
                heal_after=self.heal_after,
                at=self.at,
                when=when,
            )
        if self.kind == "link":
            return LinkFault(
                a=self.node, b=self.peer, restore_after=self.restore_after,
                at=self.at, when=when,
            )
        if self.kind == "refuse":
            return VoteRefusalFault(node=self.node, at=self.at, when=when)
        return DiskStallFault(
            node=self.node,
            duration=self.duration if self.duration is not None else 1.0,
            at=self.at,
            when=when,
        )

    def describe(self) -> str:
        """Deterministic one-line label (the shrinker's unit of work)."""
        if self.at is not None:
            trigger = f"at={self.at:g}"
        else:
            assert self.trigger is not None
            trigger = self.trigger.describe()
        target = self.node if not self.peer else f"{self.node}<->{self.peer}"
        return f"{self.kind}({target}, {trigger})"

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form (optional fields only when set)."""
        doc: dict[str, Any] = {"kind": self.kind, "node": self.node}
        if self.peer:
            doc["peer"] = self.peer
        if self.at is not None:
            doc["at"] = self.at
        if self.trigger is not None:
            doc["trigger"] = self.trigger.to_dict()
        for key in ("restart_after", "heal_after", "restore_after", "duration"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "FaultSpec":
        """Exact inverse of :meth:`to_dict`."""
        trigger_doc = doc.get("trigger")
        return FaultSpec(
            kind=doc["kind"],
            node=doc["node"],
            peer=doc.get("peer", ""),
            at=doc.get("at"),
            trigger=TraceTrigger.from_dict(trigger_doc) if trigger_doc else None,
            restart_after=doc.get("restart_after"),
            heal_after=doc.get("heal_after"),
            restore_after=doc.get("restore_after"),
            duration=doc.get("duration"),
        )


@dataclass(frozen=True)
class CampaignSchedule:
    """One campaign run: workload shape + fault specs.

    The canonical JSON form (:meth:`to_json`) is the schedule's
    identity — it rides in ``RunSpec.campaign`` and therefore in the
    result-cache key.
    """

    protocol: str
    seed: int
    #: Distributed creates submitted by the workload.
    n_ops: int = 6
    #: Concurrent clients the operations are spread over.
    n_clients: int = 2
    #: Probability an operation targets the shared hot directory
    #: (vs. the submitting client's private cold directory).
    hot_ratio: float = 0.75
    #: Submission window: operation start times are uniform in
    #: ``[0, horizon]``.
    horizon: float = 0.1
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.protocol:
            raise ValueError("CampaignSchedule requires a protocol")
        if self.n_ops < 1:
            raise ValueError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if not 0.0 <= self.hot_ratio <= 1.0:
            raise ValueError(f"hot_ratio must be in [0, 1], got {self.hot_ratio}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def build_plan(self) -> FaultPlan:
        """A fresh installable fault plan for one run."""
        return FaultPlan(
            [spec.build() for spec in self.faults],
            poll_interval=CAMPAIGN_POLL_INTERVAL,
            watch_until=CAMPAIGN_WATCH_HORIZON,
        )

    def describe(self) -> list[str]:
        """Deterministic per-fault labels (the determinism tests
        compare these byte-for-byte across serial/pooled runs)."""
        return [spec.describe() for spec in self.faults]

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form."""
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "n_ops": self.n_ops,
            "n_clients": self.n_clients,
            "hot_ratio": self.hot_ratio,
            "horizon": self.horizon,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "CampaignSchedule":
        """Exact inverse of :meth:`to_dict`."""
        return CampaignSchedule(
            protocol=doc["protocol"],
            seed=doc["seed"],
            n_ops=doc["n_ops"],
            n_clients=doc["n_clients"],
            hot_ratio=doc["hot_ratio"],
            horizon=doc["horizon"],
            faults=tuple(FaultSpec.from_dict(f) for f in doc["faults"]),
        )

    def to_json(self) -> str:
        """Canonical JSON identity — stable across processes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "CampaignSchedule":
        """Rebuild from :meth:`to_json` output."""
        return CampaignSchedule.from_dict(json.loads(text))


def generate_schedule(
    protocol: str,
    seed: int,
    nodes: Sequence[str] = ("mds1", "mds2"),
    n_faults: int = 3,
    n_ops: int = 6,
    n_clients: int = 2,
    horizon: float = 0.1,
) -> CampaignSchedule:
    """A seeded random campaign schedule.

    Extends :func:`repro.faults.scenarios.random_fault_plan` along two
    axes: the kind menu gains disk stalls and the window-targeted
    variants of :data:`WINDOW_KINDS`, and the workload shape (hot
    ratio) is drawn too.  Single-node lists drop the partition/link
    variants, same guard as ``random_fault_plan``.  All draws come
    from named RNG streams, so equal arguments give byte-identical
    schedules in any process.
    """
    node_list = list(nodes)
    if not node_list:
        raise ValueError("generate_schedule requires at least one node")
    multi = len(node_list) >= 2
    timed = [k for k in TIMED_KINDS if multi or k not in ("partition", "link")]
    windowed = [k for k in WINDOW_KINDS if multi or not k.startswith("partition")]
    menu = timed + windowed

    rng = RngRegistry(seed)
    hot_ratio = float(rng.choice("hot_ratio", [0.5, 0.75, 1.0]))
    specs: list[FaultSpec] = []
    for i in range(n_faults):
        entry = rng.choice(f"kind{i}", menu)
        node = rng.choice(f"node{i}", node_list)
        at: Optional[float] = None
        trigger: Optional[TraceTrigger] = None
        if "@" in entry:
            kind, window_name = entry.split("@", 1)
            trigger = window(window_name, node)
        else:
            kind = entry
            at = rng.uniform(f"time{i}", horizon / 10.0, horizon)
        extras: dict[str, Any] = {}
        if kind == "crash":
            extras["restart_after"] = rng.uniform(f"rb{i}", 0.05, 0.3)
        elif kind == "partition":
            extras["heal_after"] = rng.uniform(f"heal{i}", 0.5, 2.0)
        elif kind == "link":
            extras["peer"] = rng.choice(f"peer{i}", [n for n in node_list if n != node])
            extras["restore_after"] = rng.uniform(f"rl{i}", 0.5, 2.0)
        elif kind == "stall":
            extras["duration"] = rng.uniform(f"stall{i}", 0.25, 1.5)
        specs.append(FaultSpec(kind=kind, node=node, at=at, trigger=trigger, **extras))
    return CampaignSchedule(
        protocol=protocol,
        seed=seed,
        n_ops=n_ops,
        n_clients=n_clients,
        hot_ratio=hot_ratio,
        horizon=horizon,
        faults=tuple(specs),
    )
