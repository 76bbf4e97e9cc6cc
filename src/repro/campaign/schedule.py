"""Campaign schedules: seeded, serialisable fault + workload shapes.

A :class:`CampaignSchedule` is the declarative unit the campaign
explores — one workload shape (operation count, client count,
hot-directory ratio) plus a tuple of :class:`~repro.faults.Fault`
records.  Its canonical JSON form rides inside the executor's
``RunSpec`` (the ``campaign`` field), so schedules inherit the
identity discipline of every other experiment cell: same schedule,
same derived seed, same cell document.

:func:`generate_schedule` is the one random generator: timed faults of
every kind plus trace-triggered ones aimed at the protocol-critical
windows of :mod:`repro.faults.triggers`, all drawn from named
:class:`~repro.sim.RngRegistry` streams so the schedule for a seed is
byte-stable regardless of evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro.faults.injector import Fault, FaultPlan
from repro.faults.triggers import (
    NUMBER,
    ScheduleFormatError,
    field_path,
    read_fields,
    window,
)
from repro.sim import RngRegistry

#: Poll-grid spacing for campaign trace triggers: fine enough (0.5 ms)
#: to land inside the ~5 ms vote/force windows the triggers aim at.
CAMPAIGN_POLL_INTERVAL = 0.5e-3

#: Absolute virtual time past which still-untriggered window faults
#: are abandoned.  Every protocol-critical window of a campaign
#: workload opens within the first few seconds.  Not a cost bound (a
#: quiet trace costs nothing to watch): it decides which faults fire.
CAMPAIGN_WATCH_HORIZON = 10.0

#: The generator's menu: timed fault kinds (fire at an absolute time)
#: and window-targeted ones (fire when the named trigger matches).  A
#: new row of ``repro.faults.ACTIONS`` gets its entry here.
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
class CampaignSchedule:
    """One campaign run: workload shape + faults."""

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
    faults: Tuple[Fault, ...] = ()

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
            self.faults,
            poll_interval=CAMPAIGN_POLL_INTERVAL,
            watch_until=CAMPAIGN_WATCH_HORIZON,
        )

    def describe(self) -> list[str]:
        """Deterministic per-fault labels (the determinism tests
        compare these byte-for-byte across serial/pooled runs)."""
        return [fault.describe() for fault in self.faults]

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form."""
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "n_ops": self.n_ops,
            "n_clients": self.n_clients,
            "hot_ratio": self.hot_ratio,
            "horizon": self.horizon,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @staticmethod
    def from_dict(doc: Any, path: str = "") -> "CampaignSchedule":
        """Exact inverse of :meth:`to_dict`: any other key, a missing one
        or a value of another type is a :class:`~repro.faults.ScheduleFormatError`
        naming the field (``faults[1].restart_afer``) under ``path``."""
        fields = {"protocol": str, "hot_ratio": NUMBER, "horizon": NUMBER, "faults": list}
        read_fields(doc, path, fields | dict.fromkeys(("seed", "n_ops", "n_clients"), int))
        faults = tuple(
            Fault.from_dict(fault, field_path(path, f"faults[{i}]"))
            for i, fault in enumerate(doc["faults"])
        )
        try:
            return CampaignSchedule(**{**doc, "faults": faults})
        except ValueError as err:
            raise ScheduleFormatError(f"{path or 'schedule'}: {err}") from None

    def to_json(self) -> str:
        """Canonical JSON identity — stable across processes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str, path: str = "") -> "CampaignSchedule":
        """Rebuild from :meth:`to_json` output."""
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise ScheduleFormatError(f"{path or 'schedule'}: not JSON ({err})") from None
        return CampaignSchedule.from_dict(doc, path)


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

    Each fault is drawn from the menu :data:`TIMED_KINDS` +
    :data:`WINDOW_KINDS`; timed ones fire uniformly over
    ``[horizon/10, horizon]`` so the workload gets started before chaos
    begins; the workload shape (hot ratio) is drawn too.  Single-node
    lists drop the partition and link variants: a link needs two
    endpoints, and partitioning the only node just stalls the cluster
    until the heal.  All draws come from named RNG streams, so equal
    arguments give byte-identical schedules in any process.
    """
    node_list = list(nodes)
    if not node_list:
        raise ValueError("generate_schedule requires at least one node")
    multi = len(node_list) >= 2
    timed = [k for k in TIMED_KINDS if multi or k not in ("partition", "link")]
    menu = timed + [k for k in WINDOW_KINDS if multi or not k.startswith("partition")]

    rng = RngRegistry(seed)
    hot_ratio = float(rng.choice("hot_ratio", [0.5, 0.75, 1.0]))
    faults: list[Fault] = []
    for i in range(n_faults):
        entry = rng.choice(f"kind{i}", menu)
        node = rng.choice(f"node{i}", node_list)
        kind, _, window_name = entry.partition("@")
        extras: dict[str, Any] = {}
        if window_name:
            extras["trigger"] = window(window_name, node)
        else:
            extras["at"] = rng.uniform(f"time{i}", horizon / 10.0, horizon)
        if kind == "crash":
            extras["restart_after"] = rng.uniform(f"rb{i}", 0.05, 0.3)
        elif kind == "partition":
            extras["heal_after"] = rng.uniform(f"heal{i}", 0.5, 2.0)
        elif kind == "link":
            extras["peer"] = rng.choice(f"peer{i}", [n for n in node_list if n != node])
            extras["restore_after"] = rng.uniform(f"rl{i}", 0.5, 2.0)
        elif kind == "stall":
            extras["duration"] = rng.uniform(f"stall{i}", 0.25, 1.5)
        faults.append(Fault(kind, node, **extras))
    return CampaignSchedule(protocol, seed, n_ops, n_clients, hot_ratio, horizon, tuple(faults))
