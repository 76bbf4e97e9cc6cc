"""Fan-out sweep: N-participant transactions on a sharded namespace.

The golden document pins the full ``repro sweep --kind fanout`` cell
set (k ∈ {1, 2, 4, 8} × {PrN, 1PC-N}, 16 files, seed 0) byte-for-byte.
Regenerate after an intentional kernel/protocol change with:

    PYTHONPATH=src python -c "
    import json
    from repro.exec import fanout_grid, execute_spec
    specs = fanout_grid((1, 2, 4, 8), protocols=('PrN', '1PC-N'), n=16, seed=0)
    docs = [execute_spec(s).to_dict() for s in specs]
    open('tests/golden/fanout_sweep.json', 'w').write(
        json.dumps(docs, sort_keys=True, separators=(',', ':')) + '\\n')
    "
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.batching import BatchPlanner
from repro.exec import execute_spec, fanout_grid
from repro.harness.sweeps import SWEEPS
from repro.mds.scenarios import HOT_DIR, fanout_cluster
from repro.workloads.burst import run_fanout_cell

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fanout_sweep.json"

GOLDEN_PROTOCOLS = ("PrN", "1PC-N")
GOLDEN_FANOUTS = (1, 2, 4, 8)


def _golden_specs():
    return fanout_grid(GOLDEN_FANOUTS, protocols=GOLDEN_PROTOCOLS, n=16, seed=0)


def test_fanout_sweep_matches_golden():
    docs = [execute_spec(spec).to_dict() for spec in _golden_specs()]
    current = json.dumps(docs, sort_keys=True, separators=(",", ":")) + "\n"
    assert current == GOLDEN.read_text(), (
        "fanout sweep diverged from the golden document — a "
        "kernel/protocol/placement change perturbed event order or "
        "virtual timestamps; if intentional, regenerate (see module "
        "docstring)"
    )


def test_fanout_golden_is_nontrivial():
    docs = json.loads(GOLDEN.read_text())
    assert len(docs) == len(GOLDEN_FANOUTS) * len(GOLDEN_PROTOCOLS)
    seen = {(d["spec"]["protocol"], d["spec"]["fanout"]) for d in docs}
    assert seen == {(p, k) for p in GOLDEN_PROTOCOLS for k in GOLDEN_FANOUTS}
    for doc in docs:
        # Every batch committed: files / fanout transactions, 0 aborts.
        assert doc["committed"] == 16 // doc["spec"]["fanout"]
        assert doc["aborted"] == 0
        assert doc["throughput"] > 0


def test_batches_span_exactly_k_workers():
    for k in (1, 2, 4, 8):
        cluster = fanout_cluster("PrN", k)
        client = cluster.new_client()
        plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(16)]
        batches = BatchPlanner(max_batch=k, max_workers=None).partition(plans)
        assert len(batches) == 16 // k
        for batch in batches:
            assert batch.coordinator == "mds0"
            assert len(batch.workers) == k


def test_wider_transactions_amortise_forced_writes():
    narrow = run_fanout_cell("1PC-N", 1, n_files=16)
    wide = run_fanout_cell("1PC-N", 8, n_files=16)
    assert wide.forced_writes < narrow.forced_writes
    assert wide.throughput > narrow.throughput


def test_fanout_defaults_exclude_single_worker_protocols():
    names = {spec.protocol for spec in fanout_grid((2,), n=4)}
    assert "1PC" not in names and "LGL" not in names
    assert {"PrN", "1PC-N"} <= names


def test_sweep_fanout_entry_point():
    table = SWEEPS["fanout"].run((1, 2), protocols=("1PC-N",), n=4)
    assert {(p, k) for k, row in table.items() for p in row} == {("1PC-N", 1), ("1PC-N", 2)}
    assert all(v > 0 for row in table.values() for v in row.values())


def test_run_fanout_cell_rejects_fanout_wider_than_shards():
    with pytest.raises(ValueError, match="cannot exceed"):
        run_fanout_cell("PrN", 4, n_files=8, n_shards=2)
