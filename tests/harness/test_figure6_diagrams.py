"""Harness tests: Figure 6 shape, timeline figures, recovery experiment."""

import pytest

from repro.exec import run_grid
from repro.harness.diagrams import FIGURE_OF, render_all_timelines, render_events, timeline_events
from repro.harness.recovery import measure_crash_recovery
from repro.harness.report import select
from repro.harness.sweeps import SWEEPS, fold, gain, per_protocol


@pytest.fixture(scope="module")
def figure6_small():
    # A reduced burst keeps the test quick; the ordering is stable from
    # n ≈ 20 upward.  Serial, so each cell keeps its cluster.
    return run_grid(SWEEPS["figure6"].specs(n=40), keep_clusters=True)


def test_figure6_ordering_matches_paper(figure6_small):
    t = per_protocol(fold(figure6_small))
    assert t["1PC"] > t["EP"] > t["PrC"] >= t["PrN"] * 0.999


def test_figure6_gains_in_paper_band(figure6_small):
    t = per_protocol(fold(figure6_small))
    gains = {name: gain(t, name) for name in t if name != "PrN"}
    # Paper: 1PC > 50 %, EP ≈ 6.6 %, PrC ≈ 0.4 %.  At the reduced
    # burst the bands are slightly wider.
    assert gains["1PC"] > 35.0
    assert 2.0 < gains["EP"] < 15.0
    assert -0.5 < gains["PrC"] < 2.5


def test_figure6_all_transactions_commit(figure6_small):
    for cell in figure6_small:
        name = cell.spec.protocol
        assert cell.committed == cell.spec.n, name
        assert cell.payload.cluster.check_invariants() == [], name


def test_figure6_render_mentions_baseline(figure6_small):
    (figure6,) = select(["figure6"])
    rendered = figure6.render({"n": 40, "throughput": per_protocol(fold(figure6_small))})
    text, _paper = rendered.split("\npaper: ")  # the chart, then the paper's values
    assert "Figure 6" in text
    for name in ("PrN", "PrC", "EP", "1PC"):
        assert name in text
    assert "% vs PrN" in text


@pytest.mark.parametrize("protocol", ["PrN", "PrC", "EP", "1PC"])
def test_timeline_renders_protocol_flow(protocol):
    text = render_events(protocol, timeline_events(protocol))
    assert f"Figure {FIGURE_OF[protocol]}" in text
    assert "force STARTED" in text
    assert "reply to client" in text
    if protocol == "PrN":
        assert "--PREPARE-->" in text and "--ACK-->" in text
    if protocol == "EP":
        assert "--PREPARE-->" not in text  # piggybacked
        assert "--COMMIT-->" in text
    if protocol == "1PC":
        assert "--PREPARE-->" not in text and "--COMMIT-->" not in text
        assert "--ACK-->" in text
        assert "force REDO" in text or "REDO" in text


def test_timeline_events_in_time_order():
    text = render_events("PrN", timeline_events("PrN"))
    times = []
    for line in text.splitlines():
        parts = line.strip().split()
        if parts and parts[0].replace(".", "", 1).isdigit():
            times.append(float(parts[0]))
    assert times == sorted(times)
    assert len(times) >= 8


def test_render_all_timelines_covers_figures_2_to_5():
    text = render_all_timelines()
    for fig in (2, 3, 4, 5):
        assert f"Figure {fig}" in text


@pytest.mark.parametrize("protocol", ["PrN", "PrC", "EP", "1PC"])
def test_worker_crash_recovery_settles_consistently(protocol):
    result = measure_crash_recovery(protocol, "mds2")
    assert result.scenario == "worker-crash"
    assert result.violations == 0
    assert result.settle_time >= 0


@pytest.mark.parametrize("protocol", ["PrN", "PrC", "EP", "1PC"])
def test_coordinator_crash_recovery_settles_consistently(protocol):
    result = measure_crash_recovery(protocol, "mds1")
    assert result.scenario == "coordinator-crash"
    assert result.violations == 0


def test_1pc_worker_crash_recovery_is_decisive():
    """1PC resolves a dead worker by fencing + reading its log; the
    outcome is decided without waiting for the worker to return."""
    result = measure_crash_recovery("1PC", "mds2")
    assert result.violations == 0
    # The coordinator reached a decision (abort: the worker died before
    # committing at t=0.1 ms).
    assert result.committed is False
