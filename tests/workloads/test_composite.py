"""Composite workload tests: trace generation, execution, and
spec-identity preservation."""

from __future__ import annotations

import json

import pytest

from repro.exec.grids import composite_grid
from repro.exec.runners import composite_cell, execute_spec
from repro.exec.spec import RunSpec, derive_seed
from repro.faults import ScheduleFormatError
from repro.obs.hub import SAMPLE_EVERY
from repro.workloads.composite import (
    HOT_DIR,
    CompositeConfig,
    composite_trace,
    group_ops,
    group_seed,
    run_composite,
)

SMALL = CompositeConfig(ops=240, groups=3, window=8, working_set=32)


def small_spec(protocol: str = "1PC") -> RunSpec:
    return RunSpec(
        kind="composite", protocol=protocol, n=SMALL.ops, point=SMALL.ops,
        composite=SMALL.to_json(),
    )


# -- config -------------------------------------------------------------------


def test_config_round_trips_through_canonical_json():
    config = CompositeConfig(ops=99, groups=3, hot_fraction=0.5, phases=(2.0, 0.5))
    assert CompositeConfig.from_json(config.to_json()) == config
    # Canonical form: sorted keys, no whitespace.
    text = config.to_json()
    assert " " not in text
    assert list(json.loads(text)) == sorted(json.loads(text))


def _doc(**changes):
    doc = {**CompositeConfig().to_dict(), **changes}
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_doc(bogus=1), r"composite\.bogus: unknown field"),
        (_doc(ops=True), r"composite\.ops: wrong type bool"),
        (_doc(window=None), r"composite\.window: missing"),
    ],
    ids=["unknown", "bool-for-int", "missing"],
)
def test_config_from_dict_names_the_bad_field(doc, message):
    with pytest.raises(ScheduleFormatError, match=message):
        CompositeConfig.from_dict(doc)


def test_config_validation():
    with pytest.raises(ValueError):
        CompositeConfig(ops=0)
    with pytest.raises(ValueError):
        CompositeConfig(ops=2, groups=3)  # more groups than ops
    with pytest.raises(ValueError):
        CompositeConfig(mix=(("chmod", 1.0),))
    with pytest.raises(ValueError):
        CompositeConfig(mix=(("create", 0.0),))
    with pytest.raises(ValueError):
        CompositeConfig(cold_dirs=0, hot_fraction=0.5)
    with pytest.raises(ValueError):
        CompositeConfig(phases=())
    with pytest.raises(ValueError):
        CompositeConfig(phases=(1.0, -1.0))


def test_group_ops_partitions_exactly():
    config = CompositeConfig(ops=10, groups=3)
    shares = [group_ops(config, g) for g in range(3)]
    assert sum(shares) == 10
    assert shares == [4, 3, 3]  # remainder goes to the low groups


def test_group_seeds_are_distinct_and_stable():
    seeds = [group_seed(42, g) for g in range(4)]
    assert len(set(seeds)) == 4
    assert seeds == [group_seed(42, g) for g in range(4)]


# -- trace generator ----------------------------------------------------------


def test_trace_is_lazy_and_pure():
    config = CompositeConfig(ops=200, working_set=16)
    first = list(composite_trace(config, seed=7))
    second = list(composite_trace(config, seed=7))
    assert first == second
    assert len(first) == 200
    assert list(composite_trace(config, seed=8)) != first


def test_trace_live_set_stays_bounded():
    config = CompositeConfig(
        ops=500, working_set=8, mix=(("create", 1.0),), hot_fraction=1.0,
        cold_dirs=0,
    )
    live = 0
    for op in composite_trace(config, seed=1):
        if op["op"] == "create":
            live += 1
        elif op["op"] == "delete":
            live -= 1
        assert live <= 8  # creates beyond the cap become deletes


def test_trace_deletes_and_renames_only_target_live_files():
    config = CompositeConfig(ops=400, working_set=16)
    live = set()
    for op in composite_trace(config, seed=3):
        if op["op"] == "create":
            live.add(op["path"])
        elif op["op"] == "delete":
            assert op["path"] in live
            live.remove(op["path"])
        elif op["op"] == "rename":
            assert op["path"] in live
            # In-place rename: src and dst share a directory.
            assert op["dst"].rsplit("/", 1)[0] == op["path"].rsplit("/", 1)[0]
            live.remove(op["path"])
            live.add(op["dst"])
        assert len(live) <= config.working_set


def test_trace_targets_hot_directory_predominantly():
    config = CompositeConfig(ops=1000, hot_fraction=0.8)
    hot = sum(
        1 for op in composite_trace(config, seed=5)
        if op["path"].startswith(HOT_DIR)
    )
    assert 0.65 < hot / 1000 < 0.95


# -- execution ----------------------------------------------------------------


def test_small_composite_run_commits_and_reads():
    result = run_composite("1PC", SMALL)
    assert result.committed > 0
    assert result.reads > 0
    assert result.committed + result.aborted + result.skipped + result.reads == SMALL.ops
    assert result.throughput > 0
    assert result.events > 0
    assert result.latency.count == result.committed + result.aborted
    assert len(result.per_group) == SMALL.groups


def test_composite_cell_detail_carries_read_latency():
    result = run_composite("1PC", SMALL, small_spec().seeded_params())
    cell = composite_cell(small_spec(), result)
    doc = cell.to_dict()
    assert doc["detail"]["groups"] == SMALL.groups
    assert doc["detail"]["reads"] == result.reads
    assert doc["detail"]["read_latency"]["count"] == result.reads
    assert doc["throughput"] == pytest.approx(result.throughput)


def test_composite_cell_detail_carries_sampled_attribution():
    """Latency components per op over the 1 transaction in
    ``sample_every`` the groups' attribute hubs sample."""
    (spec,) = composite_grid((1500,), protocols=("1PC",))
    cell = execute_spec(spec)
    attribution = cell.detail["attribution"]
    assert attribution["sample_every"] == SAMPLE_EVERY
    creates = attribution["components"]["1PC/CREATE/forces"]
    assert 0 < creates["count"] < cell.committed / SAMPLE_EVERY * 1.1 and creates["p50"] >= 1


# -- identity preservation ----------------------------------------------------


def test_pre_existing_spec_documents_are_unchanged():
    # Specs without the new fields must serialise exactly as before
    # this PR: no "composite", "detail", or latency "mode" keys — the
    # goldens and every cache key stand.
    spec = RunSpec(kind="burst", protocol="1PC", n=50)
    doc = spec.to_dict()
    assert "composite" not in doc
    cell = execute_spec(spec)
    cell_doc = cell.to_dict()
    assert "detail" not in cell_doc
    assert "mode" not in cell_doc["latency"]


def test_composite_field_enters_spec_identity():
    base = small_spec()
    other = RunSpec(
        kind="composite", protocol="1PC", n=SMALL.ops, point=SMALL.ops,
        composite=CompositeConfig(ops=SMALL.ops, groups=1).to_json(),
    )
    assert base.to_dict()["composite"] == SMALL.to_json()
    assert derive_seed(base) != derive_seed(other)
