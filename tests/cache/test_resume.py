"""Crash-safe incremental sweeps: byte identity and killed-sweep resume."""

from __future__ import annotations

import os
import time

import pytest

from repro.cache import ResultCache
from repro.exec import (
    ExperimentError,
    RunSpec,
    abort_rate_grid,
    figure6_grid,
    register_runner,
    run_grid,
    run_sweep,
    scaling_grid,
)

GRIDS = {
    "figure6": lambda: figure6_grid(n=12),
    "abort_burst": lambda: abort_rate_grid([0.0, 0.2], n=10),
    "scaling": lambda: scaling_grid("1PC", pair_counts=(1, 2), ops_per_dir=8),
}


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_warm_sweep_is_byte_identical_to_cold(kind, tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    specs = GRIDS[kind]()
    cold = run_sweep(specs, kind=kind, cache=cache)
    warm = run_sweep(specs, kind=kind, cache=cache)
    assert cold.to_json(canonical=True) == warm.to_json(canonical=True)
    assert (cold.cached, cold.computed) == (0, len(specs))
    assert (warm.cached, warm.computed) == (len(specs), 0)
    # And identical to a sweep that never saw a cache.
    plain = run_sweep(specs, kind=kind)
    assert plain.to_json(canonical=True) == cold.to_json(canonical=True)


def test_pooled_cold_and_serial_warm_agree(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    specs = figure6_grid(n=10)
    cold = run_sweep(specs, kind="figure6", workers=3, cache=cache)
    warm = run_sweep(specs, kind="figure6", workers=1, cache=cache)
    assert cold.to_json(canonical=True) == warm.to_json(canonical=True)
    assert warm.cached == len(specs)


def test_refresh_recomputes_and_overwrites(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    specs = figure6_grid(n=10)
    cold = run_sweep(specs, kind="figure6", cache=cache)
    stale = cache.entries()[0]
    stale.path.write_text("{ garbage", encoding="utf-8")
    refreshed = run_sweep(specs, kind="figure6", cache=cache, refresh=True)
    assert (refreshed.cached, refreshed.computed) == (0, len(specs))
    assert refreshed.to_json(canonical=True) == cold.to_json(canonical=True)
    # The garbage entry was overwritten, so a warm pass now fully hits.
    warm = run_sweep(specs, kind="figure6", cache=cache)
    assert warm.cached == len(specs)


def test_trace_specs_bypass_the_cache(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    spec = RunSpec(kind="burst", protocol="1PC", n=6, trace=True)
    run_grid([spec], cache=cache)
    run_grid([spec], cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.bypasses == 2
    assert cache.entries() == []


def test_hit_reporting_flows_through_progress_and_trace(tmp_path):
    """Cache hits reach ``progress`` marked as such, nothing else."""
    cache = ResultCache(root=tmp_path / "cache")
    specs = figure6_grid(n=8, protocols=("1PC", "EP"))
    run_grid(specs, cache=cache)

    events = []
    run_grid(specs, cache=cache, progress=events.append)
    assert [(e.done, e.total, e.index) for e in events] == [(1, 2, 0), (2, 2, 1)]
    assert all(e.cached and e.seconds == 0.0 for e in events)


def test_partial_cache_computes_only_missing_cells(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    specs = figure6_grid(n=9)
    run_grid(specs[:2], cache=cache)
    before = cache.stats
    sweep = run_sweep(specs, kind="figure6", cache=cache)
    delta = cache.stats - before
    rest = len(specs) - 2
    assert (sweep.cached, sweep.computed) == (2, rest)
    assert (delta.hits, delta.misses, delta.writes) == (2, rest, rest)
    assert sweep.to_json(canonical=True) == run_sweep(specs, kind="figure6").to_json(
        canonical=True
    )


# -- killed pooled sweep -------------------------------------------------------

_POISON_DIR_VAR = "REPRO_TEST_POISON_WATCH_DIR"
_POISON_TARGET_VAR = "REPRO_TEST_POISON_TARGET"


def _poison_runner(spec, keep_cluster):  # pragma: no cover - dies in a fork
    """Spin until the watched cache holds the target entry count, then die.

    Stands in for an operator killing the sweep mid-grid, at a moment
    when every other cell has already been written through.
    """
    from pathlib import Path

    watch = Path(os.environ[_POISON_DIR_VAR]) / "objects"
    target = int(os.environ[_POISON_TARGET_VAR])
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if len(list(watch.glob("*/*.json"))) >= target:
            break
        time.sleep(0.01)
    os._exit(1)


register_runner("poison", _poison_runner)


def test_killed_pooled_sweep_resumes_with_only_remaining_cells(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    real_specs = [RunSpec(kind="burst", protocol="1PC", n=n) for n in range(5, 12)]
    poison = RunSpec(kind="poison", protocol="1PC", n=1)
    monkeypatch.setenv(_POISON_DIR_VAR, str(root))
    monkeypatch.setenv(_POISON_TARGET_VAR, str(len(real_specs)))

    cache = ResultCache(root=root)
    with pytest.raises(ExperimentError, match="worker process died"):
        run_grid([poison] + real_specs, workers=2, cache=cache)

    # The kill lost the sweep, not the work: every completed cell was
    # written through before the crash.
    assert len(cache.entries()) == len(real_specs)

    # Re-run with the poison cell replaced by real remaining work: only
    # that one cell computes, everything else is served from disk.
    remaining = RunSpec(kind="burst", protocol="1PC", n=12)
    before = cache.stats
    sweep = run_sweep([remaining] + real_specs, kind="figure6", workers=2, cache=cache)
    delta = cache.stats - before
    assert (delta.hits, delta.misses) == (len(real_specs), 1)
    assert (sweep.cached, sweep.computed) == (len(real_specs), 1)

    uncached = run_sweep([remaining] + real_specs, kind="figure6")
    assert sweep.to_json(canonical=True) == uncached.to_json(canonical=True)
