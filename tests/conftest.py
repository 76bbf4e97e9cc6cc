"""Repo-wide fixtures (protocol parametrisation) and test scaffolding:
a temporary protocol registration, and a session to kill."""

from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.protocols import registry
from repro.protocols.base import Session

ALL_PROTOCOLS = ("PrN", "PrC", "EP", "1PC")
TWO_PC_FAMILY = ("PrN", "PrC", "EP")


@pytest.fixture(params=ALL_PROTOCOLS)
def protocol(request):
    """Parametrises a test over all four commit protocols."""
    return request.param


@pytest.fixture(params=TWO_PC_FAMILY)
def twopc_protocol(request):
    """Parametrises a test over the 2PC family only."""
    return request.param


def unregister(name):
    """Remove a protocol from the registry; returns its spec."""
    if name not in registry._SPECS:
        raise KeyError(f"unknown protocol {name!r}; have {sorted(registry._SPECS)}")
    registry._SEQ.pop(name, None)
    return registry._SPECS.pop(name)


@contextmanager
def temporary_protocol(spec):
    """Register ``spec`` for the duration of a ``with`` block, so a
    failing assertion never leaks a registration into other tests."""
    try:
        yield registry.register_protocol(spec)
    finally:
        unregister(spec.name)


def session_waiting(sim, waited, done=None):
    """A protocol session (engine-free) waiting on ``waited`` — an event,
    or a generator it drives inline — then ending with its value, handed
    to ``done``; ``.kill()`` is what a server's crash does to it."""
    session = Session(SimpleNamespace(sim=sim, _live={}))
    session._done = done
    session.wait(waited, session.end)
    return session
