"""Cluster network: full mesh with latency, partitions and link faults."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.config import NetworkParams
from repro.net.endpoint import Endpoint
from repro.net.message import Message
from repro.sim import RngRegistry, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability


class Network:
    """The message fabric connecting all nodes in the cluster.

    Delivery semantics:

    * every message is delayed by ``params.latency`` (+ optional byte
      cost and jitter);
    * messages between nodes in different partition groups are dropped;
    * messages over an administratively failed link are dropped;
    * messages to a detached (crashed) endpoint are dropped on arrival,
      so a message already "in flight" when the receiver dies is lost
      exactly as on real hardware.

    All drops are silent; a ``msg_drop`` trace record is the only
    witness.
    """

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams | None = None,
        rng: RngRegistry | None = None,
        obs: "Observability | None" = None,
    ):
        from repro.obs.hub import Observability

        self.sim = sim
        self.params = params or NetworkParams()
        self.obs = obs if obs is not None else Observability(sim, "off")
        self.rng = rng or RngRegistry(0)
        #: The jitter stream, bound once (no registry lookup per message);
        #: None on a jitter-free network.
        self._jitter = self.rng.stream("net.jitter") if self.params.jitter else None
        self._endpoints: dict[str, Endpoint] = {}
        #: Current partition groups as sorted tuples (any iteration over
        #: a group must be hash-order independent); empty means fully
        #: connected.
        self._groups: list[tuple[str, ...]] = []
        #: Administratively failed directed links.
        self._down_links: set[tuple[str, str]] = set()
        self._msg_counter = 0

    # -- topology -----------------------------------------------------------

    def attach(self, node: str) -> Endpoint:
        """Register (or re-register) ``node`` and return its endpoint."""
        if node not in self._endpoints:
            self._endpoints[node] = Endpoint(self.sim, node, self)
        endpoint = self._endpoints[node]
        endpoint.attached = True
        return endpoint

    def detach(self, node: str) -> None:
        """Mark ``node``'s endpoint as down; its mailbox is flushed.

        Used by crash injection: a crashed node loses all queued and
        in-flight messages.
        """
        endpoint = self._require(node)
        endpoint.attached = False
        endpoint.flush()

    def endpoint(self, node: str) -> Endpoint:
        """The registered endpoint of ``node``."""
        return self._require(node)

    def nodes(self) -> list[str]:
        """All registered node names, sorted."""
        return sorted(self._endpoints)

    def _require(self, node: str) -> Endpoint:
        if node not in self._endpoints:
            raise KeyError(f"unknown node {node!r}")
        return self._endpoints[node]

    # -- faults ----------------------------------------------------------------

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the cluster into disjoint ``groups``.

        Nodes not named in any group form an implicit extra group and
        keep communicating among themselves, a node attached later
        included.
        """
        named = [tuple(sorted(set(g))) for g in groups]
        seen: set[str] = set()
        for group in named:
            overlap = seen.intersection(group)
            if overlap:
                raise ValueError(f"nodes {sorted(overlap)} appear in multiple groups")
            seen.update(group)
        self._groups = named
        # The record lists the implicit group as the nodes attached now.
        rest = tuple(sorted(n for n in self._endpoints if n not in seen))
        recorded = named + ([rest] if rest else [])
        self.obs.annotate("net_partition", "network", groups=[list(g) for g in recorded])

    def heal_partition(self) -> None:
        """Restore full connectivity."""
        self._groups = []
        self.obs.annotate("net_heal", "network")

    def fail_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Administratively fail the a->b link (and b->a by default)."""
        self._down_links.add((a, b))
        if bidirectional:
            self._down_links.add((b, a))
        self.obs.annotate("link_fail", "network", a=a, b=b)

    def restore_link(self, a: str, b: str) -> None:
        """Restore a previously failed link in both directions."""
        self._down_links.discard((a, b))
        self._down_links.discard((b, a))
        self.obs.annotate("link_restore", "network", a=a, b=b)

    def connected(self, a: str, b: str) -> bool:
        """Whether a message from ``a`` can currently reach ``b``."""
        if (a, b) in self._down_links:
            return False
        if not self._groups or a == b:
            return True
        for group in self._groups:
            if a in group:
                return b in group
        # ``a`` is in the implicit group: so must ``b`` be.
        for group in self._groups:
            if b in group:
                return False
        return True

    # -- transmission -------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Transmit ``message``; delivery is asynchronous and may fail
        silently.

        The delivery timer runs the destination endpoint's
        :meth:`~repro.net.endpoint.Endpoint.deliver`, which makes the
        arrival checks: the endpoint is looked up here, once, and a
        restart reuses it (:meth:`attach`).
        """
        try:
            endpoint = self._endpoints[message.dst]
        except KeyError:
            raise KeyError(f"message to unknown node {message.dst!r}") from None
        if message.msg_id == 0:
            self._msg_counter += 1
            message.msg_id = self._msg_counter
        src_ep = self._endpoints.get(message.src)
        if src_ep is not None and not src_ep.attached:
            # A crashed node cannot transmit.
            self.obs.msg_drop(message.src, reason="sender_down", kind=message.kind)
            return
        # Asked only of a network that has a fault to answer with.
        if (self._down_links or self._groups) and not self.connected(message.src, message.dst):
            self.obs.msg_drop(
                message.src,
                reason="partitioned",
                kind=message.kind,
                dst=message.dst,
                txn=message.txn_id,
            )
            return

        delay = self.params.latency + self.params.byte_cost * message.size
        if self._jitter is not None:
            delay += self._jitter.uniform(0.0, self.params.jitter)
        obs = self.obs
        if message.txn_id in obs.sampled or "msg_send" in obs.hears:
            obs.msg_send(
                message.src,
                kind=message.kind,
                dst=message.dst,
                txn=message.txn_id,
                msg_id=message.msg_id,
            )
        self.sim.after(delay, endpoint.deliver, message)
