"""Per-node network endpoint: a mailbox for processes, a server for nodes.

A client *process* pulls arriving messages from ``mailbox``
(``receive``, its deadline armed with ``Simulator.expire``).  A *node*
that only reacts to messages — a metadata server, a backup replica, an
acceptor — calls :meth:`Endpoint.serve` once instead and gets a serial
FIFO message server driven by one timer per message, with no process
parked on the mailbox.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Collection, Optional

from repro.net.message import Message
from repro.sim import Event, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network


class Endpoint:
    """A node's attachment to the network.

    Incoming messages land in ``mailbox`` — processes consume them
    with ``receive`` — unless ``serve`` installed a handler, which then
    gets every message in arrival order.
    """

    def __init__(self, sim: Simulator, node: str, network: "Network"):
        self.sim = sim
        self.node = node
        self.network = network
        self.attached = True
        self.mailbox: Store = Store(sim, name=f"mailbox:{node}")
        # Message-server state (unused until ``serve`` installs a handler).
        self._handler: Optional[Callable[[Message], None]] = None
        self._cost = 0.0
        self._free: Collection[str] = ()
        self._backlog: deque[Message] = deque()
        self._in_service: Optional[Message] = None
        self._epoch = 0  # bumped by flush(): a timer armed before serves nothing

    # -- sending ---------------------------------------------------------------

    def send_to(self, dst: str, kind: str, txn_id: Optional[int] = None, **payload) -> Message:
        """Build and transmit a message; returns it (msg_id assigned
        by the network at send time)."""
        msg = Message(src=self.node, dst=dst, kind=kind, txn_id=txn_id, payload=payload)
        self.network.send(msg)  # ``src`` is this node by construction
        return msg

    # -- receiving ---------------------------------------------------------------

    def receive(self, predicate: Optional[Callable[[Message], bool]] = None) -> Event:
        """Event triggering with the next (matching) message."""
        return self.mailbox.get(predicate)

    # -- serving ------------------------------------------------------------------

    def serve(
        self, handler: Callable[[Message], None], cost: float, free: Collection[str] = ()
    ) -> None:
        """Hand every arriving message to ``handler``, one at a time.

        A message occupies the node for ``cost`` seconds (a kind in
        ``free`` for none), then ``handler(message)`` runs and the next
        queued message enters service: a backlog of k messages found at
        ``t`` is handled at ``t + cost``, ``t + cost + cost``, ...  A
        free message still waits its turn behind the one in service.
        """
        self._handler = handler
        self._cost = cost
        self._free = free

    def deliver(self, message: Message) -> None:
        """A message arriving here: the callback of the delivery timer
        :meth:`Network.send` armed.

        It is dropped when this node is down, or when a partition or a
        link failure formed while it was in flight; otherwise it goes to
        the handler (or the mailbox).
        """
        network = self.network
        if not self.attached:
            network.obs.msg_drop(
                self.node, reason="receiver_down", kind=message.kind, msg_id=message.msg_id
            )
            return
        # The network's fault state is read in place, as ``send`` reads it.
        if (network._down_links or network._groups) and not network.connected(
            message.src, self.node
        ):
            network.obs.msg_drop(
                self.node, reason="partitioned", kind=message.kind, msg_id=message.msg_id
            )
            return
        obs = network.obs
        if message.msg_id in obs.sent or "msg_recv" in obs.hears:
            obs.msg_recv(
                self.node,
                kind=message.kind,
                src=message.src,
                txn=message.txn_id,
                msg_id=message.msg_id,
            )
        if self._handler is None:
            self.mailbox.put(message)
        elif self._in_service is None:
            self._in_service = message
            self.sim.after(
                0.0 if message.kind in self._free else self._cost, self._served, self._epoch
            )
        else:
            self._backlog.append(message)

    def _served(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # flushed while in service: the message died with the node
        self._handler(self._in_service)
        if self._backlog:
            message = self._in_service = self._backlog.popleft()
            self.sim.after(
                0.0 if message.kind in self._free else self._cost, self._served, self._epoch
            )
        else:
            self._in_service = None

    def flush(self) -> None:
        """Drop all queued messages, the message in service and pending
        receivers (crash semantics: the processes waiting on the
        mailbox die with the node, and their stale getters must not
        swallow post-restart traffic)."""
        self.mailbox.items.clear()
        self.mailbox.cancel_getters()
        self._backlog.clear()
        self._in_service = None
        self._epoch += 1
