"""A finished session is garbage at once.

A session's continuations are bound methods of the session itself, so
one left stored after its use is a reference cycle: only the garbage
collector frees it, and until then it holds the session, its inbox and
everything its steps touched — peak RSS pays for it.  With the
collector off, every session of a 100-create burst and of a
crash/restart campaign cell must be freed by reference counting alone
once the run is over.
"""

import gc
import weakref

import pytest

from repro.exec.grids import campaign_grid
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec
from repro.protocols.base import Session


@pytest.fixture
def sessions(monkeypatch):
    """Weak references to every session started, collector off."""
    refs = []
    init = Session.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Session, "__init__", tracking)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _survivors(refs):
    return sorted(type(s).__name__ for s in (ref() for ref in refs) if s is not None)


@pytest.mark.parametrize("protocol", ["1PC", "PrN", "LGL"])
def test_every_burst_session_is_freed_by_refcount(protocol, sessions):
    cell = execute_spec(RunSpec(kind="burst", protocol=protocol, n=100, seed=0), keep_cluster=True)
    assert cell.committed == 100
    assert len(sessions) >= 200
    assert _survivors(sessions) == []


@pytest.mark.parametrize("protocol,index", [("PrN", 3), ("1PC", 10)])
def test_killed_and_recovering_sessions_are_freed_by_refcount(protocol, index, sessions):
    """Crashes kill sessions mid-wait (the PrN cell's coordinator mid
    ACK collection) and restarts run recovery sessions."""
    spec = campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)[index]
    cell = execute_spec(spec, keep_cluster=True)
    assert cell.verdict["ok"]
    # The cell's attribute-mode hub keeps no stream, but it counts.
    assert {"crash", "restart"} <= cell.payload.obs.categories_seen()
    assert all(server._live == {} for server in cell.payload.servers.values())
    assert _survivors(sessions) == []
