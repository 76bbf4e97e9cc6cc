"""Calibration harness and the new CLI subcommands."""

import pytest

from repro.harness.calibrate import (
    PAPER_GAINS,
    grid_search,
    measure_gains,
    score,
)


def test_score_zero_at_paper_gains():
    assert score(dict(PAPER_GAINS)) == 0.0


def test_score_penalises_deviation():
    off = {"PrC": 5.0, "EP": 6.6, "1PC": 60.0}
    assert score(off) > score(dict(PAPER_GAINS))


def test_measure_gains_at_defaults_is_near_paper():
    from repro.config import SimulationParams

    gains = measure_gains(SimulationParams.paper_defaults(), n=40)
    assert abs(gains["PrC"] - PAPER_GAINS["PrC"]) < 2.0
    assert abs(gains["EP"] - PAPER_GAINS["EP"]) < 4.0
    assert gains["1PC"] > 35.0


def test_grid_search_orders_by_score():
    points = grid_search(
        update_sizes=(845.0,),
        state_sizes=(400.0,),
        msg_costs=(0.0, 380e-6),
        n=30,
    )
    assert len(points) == 2
    assert points[0].score <= points[1].score
    # The calibrated dispatch cost must beat a zero-cost network for
    # matching the paper (it is what gives EP its gain).
    assert points[0].msg_processing_latency == pytest.approx(380e-6)
    assert "score" in points[0].describe()


def test_cli_calibrate(capsys):
    from repro.cli import main

    # Tiny bursts keep the CLI smoke test quick.
    code = main(["calibrate", "--n", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Best:" in out and "Target gains" in out


def test_cli_trace_writes_jsonl(tmp_path, capsys):
    from repro.cli import main

    out_file = tmp_path / "t.jsonl"
    code = main(["trace", "--protocol", "PrN", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) > 20
