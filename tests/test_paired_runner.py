"""``benchmarks/paired.py``: the order of each pair and the verdict.

The runner's child processes are not started here: ``_run`` is replaced
by a recorder, so these tests pin which tree runs first in each pair
and how a metric's paired ratios are read against its bound.
"""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

PAIRED = Path(__file__).resolve().parents[1] / "benchmarks" / "paired.py"


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired_runner", PAIRED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_that_runs_first_alternates(paired, monkeypatch, tmp_path):
    order = []

    def fake_run(tree, cache, workload, args, out):
        side = "head" if tree == paired.ROOT else "base"
        order.append(side)
        return {"side": side, "index": len(order)}

    monkeypatch.setattr(paired, "_run", fake_run)
    args = argparse.Namespace(pairs=4, seed=0)
    pairs = paired.paired(tmp_path / "base", "kernel-churn", args, tmp_path)
    assert order == ["base", "head", "head", "base", "base", "head", "head", "base"]
    assert [(b["side"], h["side"]) for b, h in pairs] == [("base", "head")] * 4


@pytest.mark.parametrize(
    "values, better, expected",
    [
        ([(100, 95), (100, 100), (100, 110)], "higher", "within"),
        ([(100, 95), (100, 100), (100, 110)], "lower", "within"),
        # one pair beyond the bound either way, the runs overlapping
        ([(100, 86.8), (100, 105), (64, 99.3)], "higher", "unresolved"),
        ([(100, 64), (100, 97), (70, 102.9)], "lower", "unresolved"),
        ([(100, 130), (100, 140), (100, 120)], "lower", "REGRESSED"),
        ([(100, 70), (100, 72), (100, 80)], "higher", "REGRESSED"),
        # every head run beat every base run: not unresolved
        ([(100, 60), (110, 70), (105, 62)], "lower", "better"),
        ([(100, 130), (100, 140), (100, 120)], "higher", "better"),
        ([(100, 130), (120, 140), (100, 119)], "higher", "unresolved"),
    ],
)
def test_a_metric_whose_pairs_cross_the_bound_is_unresolved(paired, values, better, expected):
    assert paired.verdict(values, better, 0.25) == expected
