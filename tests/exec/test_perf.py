"""``repro perf`` tests: the scale run's code path and document schema."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exec import perf
from repro.exec.perf import PERF_SCHEMA_VERSION, PerfResults, peak_rss_kb, run_million_txn
from repro.obs.hub import SAMPLE_EVERY


def test_peak_rss_watermark_is_positive_and_monotone():
    first = peak_rss_kb()
    assert first["self"] > 0
    ballast = [0.0] * 2_000_000  # ~16 MB: push the watermark up
    second = peak_rss_kb()
    del ballast
    assert second["self"] >= first["self"]
    # High watermark: releasing the ballast must not lower it.
    assert peak_rss_kb()["self"] >= second["self"]


@pytest.fixture
def scaled_down(monkeypatch):
    """The scale run at 1/1000 size with only its absolute floor relaxed:
    every composite result claims a million commits more than it made."""
    real = perf.run_composite

    def generous(protocol, config):
        result = real(protocol, config)
        return replace(result, committed=result.committed + 1_000_000)

    monkeypatch.setattr(perf, "run_composite", generous)
    return run_million_txn(ops=1_500, groups=2)


def test_million_txn_scaled_down_records_rss_ratio(scaled_down):
    run = scaled_down
    assert run.name == "million-txn" and run.events > 0 and run.sim_time > 0
    detail = run.detail
    assert detail["base_ops"] == 150 and detail["latency_mode"] in ("exact", "sketch")
    assert detail["rss_full_kb"] >= detail["rss_base_kb"] > 0
    assert detail["rss_ratio"] == detail["rss_full_kb"] / detail["rss_base_kb"]
    # The full run's attribution, over the 1 transaction in K its hubs sample.
    attribution = detail["attribution"]
    assert attribution["sample_every"] == SAMPLE_EVERY
    creates = attribution["components"]["1PC/CREATE/forces"]
    assert 0 < creates["count"] < run.txns / SAMPLE_EVERY * 1.1 and creates["p50"] >= 1


def test_million_txn_refuses_a_run_that_commits_fewer_than_a_million():
    with pytest.raises(RuntimeError, match="needs >= 1,000,000"):
        run_million_txn(ops=1_500, groups=2)


def test_perf_document_schema_carries_both_wall_clocks(scaled_down):
    results = PerfResults(workloads=[scaled_down], wall_time_s=scaled_down.wall_s)
    doc = results.to_dict()
    assert doc["schema_version"] == PERF_SCHEMA_VERSION == 3 and doc["kind"] == "perf"
    (workload,) = doc["workloads"]
    assert workload["name"] == "million-txn" and workload["repeats"] == 1
    # The workload's own wall clock and the run's, next to the rates.
    assert workload["wall_s"] > 0 and doc["meta"]["wall_time_s"] > 0
    assert workload["txns_per_s"] == workload["txns"] / workload["wall_s"]
    # Schema v3: the document reports the process's RSS watermark.
    assert doc["peak_rss_kb"]["self"] > 0
