"""Unit tests for metrics and table rendering."""

import math

import pytest

from repro.analysis.metrics import LatencyStats, percentile, throughput
from repro.analysis.tables import render_bar_chart, render_table
from repro.protocols.base import TxnOutcome


def outcome(txn_id, submitted, replied, committed=True):
    return TxnOutcome(
        txn_id=txn_id,
        op="CREATE",
        path=f"/d/f{txn_id}",
        committed=committed,
        submitted_at=submitted,
        replied_at=replied,
        finished_at=replied,
        coordinator="mds1",
    )


def test_throughput_over_makespan():
    outcomes = [outcome(1, 0.0, 1.0), outcome(2, 0.0, 2.0)]
    assert throughput(outcomes) == pytest.approx(1.0)


def test_throughput_committed_only_by_default():
    outcomes = [outcome(1, 0.0, 1.0), outcome(2, 0.0, 2.0, committed=False)]
    assert throughput(outcomes) == pytest.approx(1.0)
    assert throughput(outcomes, committed_only=False) == pytest.approx(1.0)


def test_throughput_empty_is_zero():
    assert throughput([]) == 0.0


def test_throughput_degenerate_window_is_zero():
    # All outcomes at one timestamp: no elapsed time, so zero — not inf
    # (regression: this used to return math.inf).
    assert throughput([outcome(1, 0.0, 0.0)]) == 0.0
    assert not math.isinf(throughput([outcome(1, 5.0, 5.0), outcome(2, 5.0, 5.0)]))


def test_percentile_values():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)
    assert percentile([7.0], 50) == 7.0


def test_percentile_sorts_unsorted_input():
    # Regression: the historical signature required pre-sorted input
    # and silently interpolated garbage otherwise.
    shuffled = [4.0, 1.0, 3.0, 2.0]
    assert percentile(shuffled, 0) == 1.0
    assert percentile(shuffled, 100) == 4.0
    assert percentile(shuffled, 50) == percentile(sorted(shuffled), 50)
    # The input list itself must not be reordered in place.
    assert shuffled == [4.0, 1.0, 3.0, 2.0]


def test_latency_stats_from_outcomes():
    outcomes = [outcome(i, 0.0, float(i)) for i in range(1, 11)]
    stats = LatencyStats.from_outcomes(outcomes)
    assert stats.count == 10
    assert stats.minimum == 1.0 and stats.maximum == 10.0
    assert stats.mean == pytest.approx(5.5)
    assert stats.p50 == pytest.approx(5.5)
    assert stats.p99 > stats.p95 > stats.p50


def test_latency_stats_empty_raises():
    with pytest.raises(ValueError):
        LatencyStats.from_outcomes([])


def test_render_table_alignment():
    text = render_table(["A", "Bee"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "A" in lines[1] and "Bee" in lines[1]
    assert all("|" in line for line in lines[1:] if "-" not in line)


def test_render_bar_chart_baseline_annotation():
    text = render_bar_chart({"PrN": 10.0, "1PC": 15.0}, baseline="PrN", unit="tx/s")
    assert "+50.00% vs PrN" in text
    assert "tx/s" in text


def test_render_bar_chart_empty_raises():
    with pytest.raises(ValueError):
        render_bar_chart({})
