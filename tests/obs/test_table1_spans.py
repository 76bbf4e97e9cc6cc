"""Conformance: span-derived cost counts equal the declared Table-I rows.

The Table-I accounting folds the trace records attached to each
transaction's span tree.  These tests prove
the span-derived counts reproduce each spec's declared row exactly
(the paper's table for its four protocols), protocol by protocol, straight from ``cluster.obs.spans`` — no whole-trace scan.
"""

import pytest

from repro.analysis.costs import CostRow, fold_span_costs
from repro.mds.scenarios import distributed_create_cluster
from repro.protocols.registry import get_spec, specs

#: Protocols whose spec declares a Table-I row.
DECLARED = sorted(s.name for s in specs() if s.table1_row is not None)


def run_one_create(protocol):
    cluster, client = distributed_create_cluster(protocol)
    done = cluster.sim.process(client.create("/dir1/f0"), name="t")
    cluster.sim.run(until=done)
    assert done.value["committed"]
    cluster.sim.run(until=cluster.sim.now + 60.0)
    return cluster


@pytest.mark.parametrize("protocol", DECLARED)
def test_span_fold_matches_paper_table1(protocol):
    cluster = run_one_create(protocol)
    roots = cluster.obs.spans.roots()
    assert len(roots) == 1
    row = fold_span_costs(roots[0], workers=1)
    declared = CostRow(*get_spec(protocol).table1_row)
    assert row == declared, f"{protocol}: span-derived {row} != declared {declared}"


@pytest.mark.parametrize("protocol", ["1PC", "EP", "PrC", "PrN"])
def test_root_span_covers_the_worker_leg(protocol):
    cluster = run_one_create(protocol)
    root = cluster.obs.spans.roots()[0]
    assert root.status == "committed"
    assert root.protocol == protocol
    legs = [c for c in root.children if c.actor == "mds2"]
    assert len(legs) == 1, "the distributed CREATE must open one worker leg"
    assert legs[0].parent_id == root.span_id
    # The worker's forced redo write lives on its own leg, not the root.
    assert any(
        e.category == "log_append" and e.get("sync") for e in legs[0].events
    )


def test_metrics_agree_with_span_fold_for_1pc():
    """txn.messages folds the same protocol sends Table I counts
    (before the per-worker base-message subtraction)."""
    cluster = run_one_create("1PC")
    row = fold_span_costs(cluster.obs.spans.roots()[0], workers=1)
    messages = cluster.obs.metrics.histogram("txn.messages")
    # fold subtracts 2 base messages per worker; the raw histogram keeps them.
    assert messages.values == [float(row.msgs_total + 2)]
