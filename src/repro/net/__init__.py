"""Network substrate.

Models the message-passing fabric between metadata servers: a full mesh
of point-to-point links with configurable latency, plus administrative
fault controls (network partitions, link failures, message drops).

Message loss is silent, as on a real cluster network: senders discover
failures only through protocol timeouts or the heartbeat failure
detector, never by an error return from ``send``.
"""

from repro.net.endpoint import Endpoint
from repro.net.message import Message
from repro.net.network import Network

__all__ = ["Endpoint", "Message", "Network"]
