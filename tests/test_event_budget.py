"""The kernel-event budget per protocol (ROADMAP item 1b): a CI gate.

Kernel events and generator resumptions are the host cost of a
simulated transaction that corresponds to no message, log write or lock
of the protocol itself.  They are deterministic, so the 100-create
burst cell of every registered protocol is pinned *exactly*: a change
that moves a count either found a saving (re-pin the table, deliberately,
and say why in the commit) or added overhead to every experiment the
repo runs.  The ceiling column is the budget in the ROADMAP's unit,
events per committed transaction.
"""

import pytest

from repro.exec.grids import campaign_grid
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec
from repro.protocols import default_protocols
from repro.sim.process import Process

#: protocol -> (sim.events_processed, Process._resume calls, ceiling of
#: events / committed) for RunSpec(kind="burst", n=100, seed=0).
#: Pinned after the event diet (one deadline per wait, callback message
#: server, process-free WAL flusher); before it 1PC read 4,197 / 2,799.
BUDGET = {
    "PrN": (5299, 1699, 53),
    "PrC": (4698, 1499, 47),
    "EP": (3786, 1299, 38),
    "1PC": (3094, 999, 31),
    "PrA": (5299, 1699, 53),
    "PC": (11599, 3299, 116),
    "LGL": (4298, 999, 43),
    "1PC-N": (3094, 999, 31),
}


def test_budget_table_covers_every_registered_protocol():
    assert set(BUDGET) == set(default_protocols())


@pytest.mark.parametrize("protocol", default_protocols())
def test_burst_cell_stays_within_its_event_budget(protocol, monkeypatch):
    resumes = 0
    resume = Process._resume

    def counting_resume(self, event):
        nonlocal resumes
        resumes += 1
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting_resume)
    cell = execute_spec(RunSpec(kind="burst", protocol=protocol, n=100, seed=0), keep_cluster=True)
    events = cell.payload.cluster.sim.events_processed
    want_events, want_resumes, ceiling = BUDGET[protocol]
    assert cell.committed == 100
    assert (events, resumes) == (want_events, want_resumes)
    assert events / cell.committed <= ceiling


#: (protocol, cell) -> sim.events_processed of that cell of
#: campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2), the
#: ledger's fault-campaign schedules.  Cell 0's window trigger fires
#: within milliseconds; cell 2 has two windows that never open, so its
#: plan watches to the 10 s horizon — as a polling loop that cost 20,396
#: (1PC) and 20,642 (PrN) events, cell 0 398 and 654; as a plan that
#: armed a poll whenever the trace grew, 476 and 757, cell 0 392 and 648.
#: A plan now hears only its triggers' categories and arms a poll only
#: when a count is reached, so a window that never opens costs nothing.
CAMPAIGN_BUDGET = {
    ("1PC", 0): 391,
    ("PrN", 0): 647,
    ("1PC", 2): 395,
    ("PrN", 2): 641,
}


@pytest.mark.parametrize("protocol,index", sorted(CAMPAIGN_BUDGET))
def test_campaign_cell_stays_within_its_event_budget(protocol, index):
    spec = campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)[index]
    cell = execute_spec(spec, keep_cluster=True)
    assert cell.verdict["ok"]
    assert cell.payload.sim.events_processed == CAMPAIGN_BUDGET[protocol, index]
