"""Spans are filed from the stream when read, metrics are folded by the
hooks, and both are exact: every record lands where the eager router
filed it, and every count and histogram equals the eager bookkeeping's.

Differential: each scenario runs with :class:`EagerReference` listening
on every hub it builds, and the hub's views must equal the reference's
— the same record objects on every span, an equal metrics snapshot —
whether they are read once at the end, at random instants mid-run, or
with ``TraceLog.clear()`` dropping the stream between reads.  The
scenarios: every registered protocol's 100-create burst, and four
ledger campaign cells whose crashes and restarts re-open legs and cut
lock chains.
"""

import json
import random
from pathlib import Path

import pytest

from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.exec.grids import campaign_grid
from repro.exec.spec import RunSpec
from repro.obs import Observability
from repro.protocols import default_protocols
from repro.workloads.burst import run_burst
from tests.obs.eager_reference import EagerReference, mismatches

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: (protocol, cell) of ``campaign_grid(protocol, runs=24, seed=0,
#: n_ops=12, n_clients=2)``, the ledger's schedules: cells with crashes
#: and restarts (14, 9, 2 and 2 crashes).
CAMPAIGN_CELLS = [("1PC", 10), ("1PC", 16), ("PrN", 16), ("PrN", 19)]

SCENARIOS = [("burst", p) for p in default_protocols()] + [
    ("campaign", p, i) for p, i in CAMPAIGN_CELLS
]


def _burst(protocol):
    params = RunSpec(kind="burst", protocol=protocol, n=100, seed=0, trace="full").seeded_params()
    return run_burst(protocol, n=100, params=params, trace="full").cluster


def _campaign(protocol, index):
    spec = campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)[index]
    cluster, _verdict = run_campaign_cell(
        CampaignSchedule.from_json(spec.campaign), params=spec.seeded_params(), trace="full"
    )
    return cluster


def execute(scenario):
    kind, *args = scenario
    return (_burst if kind == "burst" else _campaign)(*args)


def run(scenario, monkeypatch, reads=(), clears=()):
    """Run ``scenario`` with a reference on its hub; read the views at
    each of ``reads`` and clear the trace at each of ``clears`` (virtual
    seconds).  Returns the cluster, the reference and what the reads
    found different."""
    attached = []
    found = []
    original = Observability.__init__

    def init(self, sim, mode="full"):
        original(self, sim, mode)
        reference = EagerReference(self)
        attached.append(reference)
        for when in reads:
            sim.at(when, lambda _value: found.extend(mismatches(self, reference)))
        for when in clears:
            sim.at(when, lambda _value: self.trace.clear())

    monkeypatch.setattr(Observability, "__init__", init)
    cluster = execute(scenario)
    monkeypatch.undo()
    (reference,) = attached
    return cluster, reference, found


def views(cluster):
    """The views as plain data, to compare across runs."""
    spans = cluster.obs.spans
    rows = [
        [s.span_id, s.txn_id, s.role, s.actor, s.start, s.end, s.status, repr(s.attrs),
         [c.span_id for c in s.children], [(e.time, e.category, e.actor) for e in s.events]]
        for s in spans
    ]
    events = [(e.time, e.category, e.actor) for e in spans.cluster_events]
    return rows, events, cluster.obs.metrics.snapshot()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=["-".join(map(str, s)) for s in SCENARIOS])
def test_the_fold_files_what_the_eager_router_filed_however_often_it_is_read(
    scenario, monkeypatch
):
    once, reference, _ = run(scenario, monkeypatch)
    assert mismatches(once.obs, reference) == []
    assert len(once.trace) > 0 and len(once.obs.spans) > 0
    # Random instants while records are still being written.
    rng = random.Random(repr(scenario))
    instants = sorted(rng.uniform(0.0, once.trace.records[-1].time) for _ in range(8))
    polled, reference, found = run(scenario, monkeypatch, reads=instants)
    assert found == [] and mismatches(polled.obs, reference) == []
    # Reads change nothing the run does.
    assert [(r.time, r.category, r.actor) for r in polled.trace] == [
        (r.time, r.category, r.actor) for r in once.trace
    ]
    cleared, reference, found = run(
        scenario, monkeypatch, reads=instants[::2], clears=instants[1::2]
    )
    assert found == [] and mismatches(cleared.obs, reference) == []
    # A clear between reads loses no span event and no metric.
    assert cleared.trace.dropped > 0
    assert views(once) == views(polled) == views(cleared)


def test_a_run_that_reads_only_the_stream_files_nothing_until_its_views_are_read(monkeypatch):
    """A traced 1PC burst and a campaign cell run to completion with no
    record on any span and no counter in the registry but the campaign
    runner's own (the hooks fold counts and histograms as they run; the
    registry copies the counts when read); the first read files
    everything, and the burst's views then equal the golden ones
    (``tests/golden/figure6_views.json``), the campaign cell's the eager
    reference's."""
    cluster = _burst("1PC")
    campaign, reference, _ = run(("campaign", "1PC", 10), monkeypatch)
    for obs in (cluster.obs, campaign.obs):
        assert len(obs.spans) > 0
        assert not any(span.events for span in obs.spans._spans.values())
        assert obs.spans._cluster_events == []
    assert list(campaign.obs.metrics._counters) == ["campaign.runs"]  # a write

    obs = cluster.obs
    rows = [["protocol", "1PC"], ["metrics", obs.metrics.snapshot()]]
    rows += [
        ["span", s.role, s.actor, s.start, s.end, s.status,
         [[e.time, e.category, e.actor] for e in s.events], [c.actor for c in s.children]]
        for s in obs.spans
    ]
    rows.append(["cluster_events", [[e.time, e.category, e.actor] for e in obs.spans.cluster_events]])
    lines = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
    golden = (GOLDEN_DIR / "figure6_views.json").read_text().splitlines()
    start = golden.index(lines[0])
    assert lines == golden[start:start + len(lines)]
    assert start + len(lines) == len(golden) or golden[start + len(lines)].startswith('["protocol"')

    assert mismatches(campaign.obs, reference) == []
