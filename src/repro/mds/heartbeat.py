"""Heartbeat broadcasting and timeout-based failure detection.

§III-A: "The failure detection system adopted in computer clusters to
detect failing nodes is usually based on the exchange of heart beat
messages.  If a node does not receive heart beats from another node for
a long period of time it declares that node as crashed."

The detector is deliberately *unreliable* (it cannot distinguish a
crash from a partition) — which is exactly why the 1PC recovery fences
before reading a suspect's log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.protocols.base import MsgKind
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


class FailureDetector:
    """Cluster-wide last-heartbeat bookkeeping (one logical detector;
    per-observer views keyed by (observer, peer))."""

    def __init__(self, sim: Simulator, interval: float, misses: int):
        self.sim = sim
        self.interval = interval
        self.misses = misses
        self._last_seen: dict[tuple[str, str], float] = {}

    def observe(self, observer: str, peer: str, when: float) -> None:
        self._last_seen[(observer, peer)] = when

    def suspects(self, observer: str, peer: str) -> bool:
        """True when ``observer`` should currently suspect ``peer``."""
        seen = self._last_seen.get((observer, peer))
        if seen is None:
            # Never heard from the peer; give it a grace period from the
            # start of time.
            seen = 0.0
        return (self.sim.now - seen) > self.interval * self.misses


class HeartbeatService:
    """Periodic HEARTBEAT broadcast from one server to all peers: a
    chain of ``after`` timers, orphaned by ``stop`` (a crash)."""

    def __init__(self, cluster: "Cluster", node: str):
        self.cluster = cluster
        self.node = node
        self._token: Optional[object] = None

    def start(self) -> None:
        if self._token is None:
            self._token = object()
            self.cluster.sim.after(0.0, self._beat, self._token)

    def stop(self) -> None:
        self._token = None

    def _beat(self, token: object) -> None:
        if token is not self._token:
            return
        endpoint = self.cluster.network.endpoint(self.node)
        for peer in self.cluster.server_names():
            if peer != self.node:
                endpoint.send_to(peer, MsgKind.HEARTBEAT)
        interval = self.cluster.params.failure.heartbeat_interval
        self.cluster.sim.after(interval, self._beat, self._token)
