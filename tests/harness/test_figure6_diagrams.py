"""Harness tests: Figure 6 shape, timeline figures, recovery experiment."""

import pytest

from repro.harness.diagrams import FIGURE_OF, render_all_timelines, render_timeline
from repro.harness.figure6 import run_figure6
from repro.harness.recovery import measure_crash_recovery


@pytest.fixture(scope="module")
def figure6_small():
    # A reduced burst keeps the test quick; the ordering is stable from
    # n ≈ 20 upward.
    return run_figure6(n=40)


def test_figure6_ordering_matches_paper(figure6_small):
    t = figure6_small.throughputs
    assert t["1PC"] > t["EP"] > t["PrC"] >= t["PrN"] * 0.999


def test_figure6_gains_in_paper_band(figure6_small):
    gains = figure6_small.gain_over("PrN")
    # Paper: 1PC > 50 %, EP ≈ 6.6 %, PrC ≈ 0.4 %.  At the reduced
    # burst the bands are slightly wider.
    assert gains["1PC"] > 35.0
    assert 2.0 < gains["EP"] < 15.0
    assert -0.5 < gains["PrC"] < 2.5


def test_figure6_all_transactions_commit(figure6_small):
    for name, cell in figure6_small.results.items():
        assert cell.committed == cell.spec.n, name
        assert cell.payload.cluster.check_invariants() == [], name


def test_figure6_render_mentions_baseline(figure6_small):
    text = figure6_small.render()
    assert "Figure 6" in text
    for name in ("PrN", "PrC", "EP", "1PC"):
        assert name in text
    assert "% vs PrN" in text


@pytest.mark.parametrize("protocol", ["PrN", "PrC", "EP", "1PC"])
def test_timeline_renders_protocol_flow(protocol):
    text = render_timeline(protocol)
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
    text = render_timeline("PrN")
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
    assert result.invariant_violations == 0
    assert result.settle_time >= 0


@pytest.mark.parametrize("protocol", ["PrN", "PrC", "EP", "1PC"])
def test_coordinator_crash_recovery_settles_consistently(protocol):
    result = measure_crash_recovery(protocol, "mds1")
    assert result.scenario == "coordinator-crash"
    assert result.invariant_violations == 0


def test_1pc_worker_crash_recovery_is_decisive():
    """1PC resolves a dead worker by fencing + reading its log; the
    outcome is decided without waiting for the worker to return."""
    result = measure_crash_recovery("1PC", "mds2")
    assert result.invariant_violations == 0
    # The coordinator reached a decision (abort: the worker died before
    # committing at t=0.1 ms).
    assert result.committed is False
