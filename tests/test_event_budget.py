"""The kernel-event budget per protocol (ROADMAP item 1b): a CI gate.

Kernel events and wakes are the host cost of a simulated transaction
that corresponds to no message, log write or lock of the protocol
itself.  A *wake* is the kernel handing control back to waiting code:
one per ``Session.start`` and per ``Session.wait`` on an event (the
steps the step interpreter runs), plus one per ``Process._resume``
(the clients and harnesses that are still processes).  Both are
deterministic, so the 100-create burst cell of every registered
protocol is pinned *exactly*: a change that moves a count either found
a saving (re-pin the table, deliberately, and say why in the commit)
or added overhead to every experiment the repo runs.  The ceiling
column is the budget in the ROADMAP's unit, events per committed
transaction.
"""

from types import GeneratorType

import pytest

from repro.exec.grids import campaign_grid
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec
from repro.protocols import default_protocols
from repro.protocols.base import Session
from repro.sim.process import Process

#: protocol -> (sim.events_processed, wakes, ceiling of events /
#: committed) for RunSpec(kind="burst", n=100, seed=0).  Pinned when
#: protocol sessions became steps: a session that ends pushes no
#: completion entry (PrN 5,299 -> 5,099 events; PC 11,599 -> 10,799,
#: its acceptors' ballots included), and each wake is one former
#: process resumption.  Before the event diet (one deadline per
#: wait, callback message server, process-free WAL flusher) 1PC read
#: 4,197 / 2,799.
BUDGET = {
    "PrN": (5099, 1699, 51),
    "PrC": (4498, 1499, 45),
    "EP": (3586, 1299, 36),
    "1PC": (2894, 999, 29),
    "PrA": (5099, 1699, 51),
    "PC": (10799, 3299, 108),
    "LGL": (4098, 999, 41),
    "1PC-N": (2894, 999, 29),
}


def test_budget_table_covers_every_registered_protocol():
    assert set(BUDGET) == set(default_protocols())


@pytest.mark.parametrize("protocol", default_protocols())
def test_burst_cell_stays_within_its_event_budget(protocol, monkeypatch):
    wakes = 0
    resume, wait, start = Process._resume, Session.wait, Session.start

    def counting_resume(self, event):
        nonlocal wakes
        wakes += 1
        resume(self, event)

    def counting_wait(self, event, step):
        nonlocal wakes
        wakes += event is not None and event.__class__ is not GeneratorType
        wait(self, event, step)

    def counting_start(self, step, value=None):
        nonlocal wakes
        wakes += 1
        return start(self, step, value)

    monkeypatch.setattr(Process, "_resume", counting_resume)
    monkeypatch.setattr(Session, "wait", counting_wait)
    monkeypatch.setattr(Session, "start", counting_start)
    cell = execute_spec(RunSpec(kind="burst", protocol=protocol, n=100, seed=0), keep_cluster=True)
    events = cell.payload.cluster.sim.events_processed
    want_events, want_wakes, ceiling = BUDGET[protocol]
    assert cell.committed == 100
    assert (events, wakes) == (want_events, want_wakes)
    assert events / cell.committed <= ceiling


#: (protocol, cell) -> sim.events_processed of that cell of
#: campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2), the
#: ledger's fault-campaign schedules.  Cell 0's window trigger fires
#: within milliseconds; cell 2 has two windows that never open, so its
#: plan watches to the 10 s horizon — as a polling loop that cost 20,396
#: (1PC) and 20,642 (PrN) events, cell 0 398 and 654; as a plan that
#: armed a poll whenever the trace grew, 476 and 757, cell 0 392 and 648.
#: A plan now hears only its triggers' categories and arms a poll only
#: when a count is reached, so a window that never opens costs nothing;
#: then 391, 647, 395 and 641, until sessions stopped pushing a
#: completion entry.
CAMPAIGN_BUDGET = {
    ("1PC", 0): 367,
    ("PrN", 0): 623,
    ("1PC", 2): 371,
    ("PrN", 2): 617,
}


@pytest.mark.parametrize("protocol,index", sorted(CAMPAIGN_BUDGET))
def test_campaign_cell_stays_within_its_event_budget(protocol, index):
    spec = campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)[index]
    cell = execute_spec(spec, keep_cluster=True)
    assert cell.verdict["ok"]
    assert cell.payload.sim.events_processed == CAMPAIGN_BUDGET[protocol, index]
