"""Streaming-statistics accumulator: exactness, sketch bounds, merging."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.analysis.metrics import LatencyStats, percentile
from repro.analysis.streaming import (
    EXACT_THRESHOLD,
    SKETCH_SIZE,
    QuantileSketch,
    StreamingStats,
    _iter_sketch,
    _priority,
    merge_all,
)


def draws(n: int, seed: int = 42) -> list[float]:
    rng = random.Random(seed)
    return [rng.expovariate(1.0 / 0.02) for _ in range(n)]


# -- exact mode ---------------------------------------------------------------


def test_exact_mode_matches_statistics_module():
    values = draws(500)
    stats = StreamingStats()
    for value in values:
        stats.observe(value)
    assert stats.mode == "exact"
    assert stats.count == 500
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
    assert stats.mean == pytest.approx(statistics.fmean(values), rel=1e-12)
    # Raw values are preserved verbatim, in arrival order.
    assert stats.values == values
    assert stats.quantile(50.0) == percentile(values, 50.0)


def test_exact_mode_finalises_byte_identically_to_legacy():
    # The legacy LatencyStats computation: sort, sum the sorted list.
    values = draws(300, seed=7)
    stats = StreamingStats()
    for value in values:
        stats.observe(value)
    final = LatencyStats.from_streaming(stats)
    ordered = sorted(values)
    assert final.mode == "exact"
    assert final.mean == sum(ordered) / len(ordered)  # bit-for-bit
    assert final.p99 == percentile(ordered, 99.0)


def test_empty_stream_raises():
    stats = StreamingStats()
    for prop in ("minimum", "maximum", "mean"):
        with pytest.raises(ValueError):
            getattr(stats, prop)
    with pytest.raises(ValueError):
        stats.quantile(50.0)


# -- sketch mode --------------------------------------------------------------


def test_promotion_crosses_threshold_and_drops_raw_values():
    stats = StreamingStats(seed=1, label="t", exact_threshold=64, sketch_size=512)
    for value in draws(64):
        stats.observe(value)
    assert stats.mode == "exact"
    stats.observe(1.0)
    assert stats.mode == "sketch"
    with pytest.raises(RuntimeError):
        stats.values


def test_promoted_sketch_equals_sketch_from_start():
    values = draws(200, seed=3)
    promoted = StreamingStats(seed=9, label="s", exact_threshold=100, sketch_size=64)
    direct = QuantileSketch(seed=9, label="s", k=64)
    for value in values:
        promoted.observe(value)
        direct.add(value)
    assert promoted.mode == "sketch"
    assert sorted(_iter_sketch(promoted._sketch)) == sorted(_iter_sketch(direct))


def test_sketch_quantiles_within_rank_error_bound():
    # Uniform k-sample: rank error ~1/sqrt(k).  With k=1024 over an
    # exponential stream, allow 5 standard errors (~0.16 rank).
    n, k = 50_000, 1024
    values = draws(n, seed=11)
    stats = StreamingStats(seed=5, label="q", exact_threshold=0, sketch_size=k)
    for value in values:
        stats.observe(value)
    ordered = sorted(values)
    for pct in (50.0, 95.0, 99.0):
        estimate = stats.quantile(pct)
        # Convert the estimate back to its true rank in the stream.
        import bisect

        rank = bisect.bisect_left(ordered, estimate) / n
        assert abs(rank - pct / 100.0) < 5.0 / (k ** 0.5), (
            f"p{pct}: estimated rank {rank:.4f}"
        )


def test_sketch_moments_are_exact_regardless_of_mode():
    values = draws(1_000, seed=13)
    sketchy = StreamingStats(exact_threshold=0, sketch_size=8)
    for value in values:
        sketchy.observe(value)
    # min/max/count are exact even with a tiny sketch.
    assert sketchy.count == len(values)
    assert sketchy.minimum == min(values)
    assert sketchy.maximum == max(values)
    assert sketchy.mean == pytest.approx(statistics.fmean(values), rel=1e-12)


# -- merging ------------------------------------------------------------------


def test_merge_of_exact_parts_preserves_values_and_order():
    a = StreamingStats(seed=1, label="a")
    b = StreamingStats(seed=2, label="b")
    for value in (3.0, 1.0):
        a.observe(value)
    for value in (2.0, 5.0):
        b.observe(value)
    total = merge_all([a, b])
    assert total.mode == "exact"
    assert total.values == [3.0, 1.0, 2.0, 5.0]
    assert total.count == 4
    assert total.minimum == 1.0 and total.maximum == 5.0


def test_merge_order_determinism_and_sketch_associativity():
    parts = []
    for group in range(4):
        stats = StreamingStats(seed=100 + group, label=f"g{group}",
                               exact_threshold=0, sketch_size=256)
        for value in draws(500, seed=group):
            stats.observe(value)
        parts.append(stats)
    flat = merge_all(parts)
    # ((g0+g1) + (g2+g3)) — same group order, different tree shape.
    left = merge_all(parts[:2])
    right = merge_all(parts[2:])
    nested = merge_all([left, right])
    assert sorted(_iter_sketch(flat._sketch)) == sorted(_iter_sketch(nested._sketch))
    assert flat.count == nested.count == 2000
    assert flat.minimum == nested.minimum
    assert flat.maximum == nested.maximum


def test_merge_promotes_when_combined_count_crosses_threshold():
    a = StreamingStats(seed=1, label="a", exact_threshold=10, sketch_size=32)
    b = StreamingStats(seed=2, label="b", exact_threshold=10, sketch_size=32)
    for value in draws(6, seed=1):
        a.observe(value)
    for value in draws(6, seed=2):
        b.observe(value)
    assert a.mode == b.mode == "exact"
    a.merge(b)
    assert a.mode == "sketch"
    assert a.count == 12


def test_merged_promotion_attributes_priorities_to_origin_streams():
    # Promote a merged pair and compare against sampling each origin
    # stream from scratch: identical kept (priority, value) sets.
    xs, ys = draws(8, seed=21), draws(8, seed=22)
    a = StreamingStats(seed=1, label="a", exact_threshold=10, sketch_size=4)
    b = StreamingStats(seed=2, label="b", exact_threshold=10, sketch_size=4)
    for value in xs:
        a.observe(value)
    for value in ys:
        b.observe(value)
    a.merge(b)  # 16 > 10: promotes
    reference = QuantileSketch(seed=1, label="a", k=4)
    for value in xs:
        reference.add(value)
    other = QuantileSketch(seed=2, label="b", k=4)
    for value in ys:
        other.add(value)
    reference.merge(other)
    assert sorted(_iter_sketch(a._sketch)) == sorted(_iter_sketch(reference))


def test_observe_after_merge_is_forbidden():
    a, b = StreamingStats(), StreamingStats()
    b.observe(1.0)
    a.merge(b)
    with pytest.raises(RuntimeError, match="observe after merge"):
        a.observe(2.0)


def test_merge_all_requires_parts():
    with pytest.raises(ValueError):
        merge_all([])


# -- plumbing -----------------------------------------------------------------


def test_priorities_are_stable_and_stream_scoped():
    assert _priority(1, "a", 0) == _priority(1, "a", 0)
    assert _priority(1, "a", 0) != _priority(1, "a", 1)
    assert _priority(1, "a", 0) != _priority(2, "a", 0)
    assert _priority(1, "a", 0) != _priority(1, "b", 0)


def test_defaults_are_documented_values():
    assert EXACT_THRESHOLD == 65536
    assert SKETCH_SIZE == 4096
