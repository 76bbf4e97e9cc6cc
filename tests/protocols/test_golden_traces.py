"""Golden-trace regression tests.

A full trace of one distributed CREATE is stored per protocol under
``tests/golden/``.  Any change to protocol behaviour — an extra
message, a reordered write, a shifted timestamp — shows up as a trace
diff.  Regenerate deliberately with::

    python - <<'EOF'
    from repro.analysis.traceio import dump_trace
    from tests.protocols.conftest import make_cluster, run_create, drain
    for proto in ("PrN", "1PC"):
        cluster, client = make_cluster(proto)
        run_create(cluster, client)
        drain(cluster)
        dump_trace(cluster.trace, f"tests/golden/{proto.lower()}_create.jsonl")
    EOF
"""

import json
from pathlib import Path

import pytest

from repro.analysis.traceio import trace_to_string
from tests.protocols.conftest import drain, make_cluster, run_create

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize("protocol", ["PrN", "1PC"])
def test_trace_matches_golden(protocol):
    cluster, client = make_cluster(protocol)
    run_create(cluster, client)
    drain(cluster)
    current = trace_to_string(cluster.trace)
    golden = (GOLDEN_DIR / f"{protocol.lower()}_create.jsonl").read_text()
    assert current == golden, (
        f"{protocol} trace diverged from the golden trace — if the "
        "change is intentional, regenerate tests/golden/ (see module "
        "docstring)"
    )


def obs_views(cluster):
    """The two views the hub derives from the trace, as a canonical
    document: the metrics snapshot and the span-tree shape."""
    spans = cluster.obs.spans
    doc = {
        "metrics": cluster.obs.metrics.snapshot(),
        "spans": [
            [s.role, s.actor, s.start, s.end, s.status, len(s.events),
             [child.actor for child in s.children]]
            for s in spans
        ],
        "cluster_events": len(spans.cluster_events),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("protocol", ["PrN", "1PC"])
def test_obs_views_match_golden(protocol):
    """Counters, histograms and span trees are folds of the trace: a
    hub change that keeps the trace bytes but drifts a view fails here.
    Regenerate like the traces above, writing ``obs_views(cluster)`` to
    ``tests/golden/<proto>_create_views.json``."""
    cluster, client = make_cluster(protocol)
    run_create(cluster, client)
    drain(cluster)
    golden = (GOLDEN_DIR / f"{protocol.lower()}_create_views.json").read_text()
    assert obs_views(cluster) == golden


def _event_rows(events):
    return [[e.time, e.category, e.actor] for e in events]


def figure6_views():
    """The hub's views of every protocol's traced Figure-6 burst cell
    (n=100, seed 0), one JSON line per span: the metrics snapshot, each
    span with the ``(time, category, actor)`` of every record it owns,
    and the cluster-scope records, in order."""
    from repro.exec.runners import execute_spec
    from repro.exec.spec import RunSpec

    lines = []
    for protocol in default_protocols():
        spec = RunSpec(kind="burst", protocol=protocol, n=100, seed=0, trace="full")
        obs = execute_spec(spec, keep_cluster=True).payload.cluster.obs
        rows = [["protocol", protocol], ["metrics", obs.metrics.snapshot()]]
        rows += [
            ["span", s.role, s.actor, s.start, s.end, s.status,
             _event_rows(s.events), [child.actor for child in s.children]]
            for s in obs.spans
        ]
        rows.append(["cluster_events", _event_rows(obs.spans.cluster_events)])
        lines += [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
    return "\n".join(lines) + "\n"


def test_figure6_views_match_golden():
    """Which span owns each record, for every protocol, record by
    record: routing or fold changes that keep the counts but move a
    record between legs fail here.  Regenerate deliberately with
    ``open("tests/golden/figure6_views.json", "w").write(figure6_views())``."""
    assert figure6_views() == (GOLDEN_DIR / "figure6_views.json").read_text()


def test_golden_traces_exist_and_are_nontrivial():
    for name in ("prn_create.jsonl", "1pc_create.jsonl"):
        path = GOLDEN_DIR / name
        assert path.exists()
        assert len(path.read_text().splitlines()) > 20


# -- Figure-6 cell documents --------------------------------------------------
#
# One full executor cell (100-create burst, seed 0) per registered
# protocol, serialized canonically and byte-compared against captured
# documents.  This pins the end-to-end stack — scheduler, network,
# WAL/replicas/acceptors, locks, protocol — not just one CREATE's
# trace.  A protocol registered without a golden file fails here:
# run the snippet below to capture its cell.  Regenerate deliberately
# with::
#
#     PYTHONPATH=src python - <<'EOF'
#     import json
#     from repro.exec.runners import execute_spec
#     from repro.exec.spec import RunSpec
#     from repro.protocols.registry import default_protocols
#     for proto in default_protocols():
#         spec = RunSpec(kind="burst", protocol=proto, n=100, seed=0,
#                        point="golden-figure6")
#         cell = execute_spec(spec)
#         doc = json.dumps(cell.to_dict(), sort_keys=True,
#                          separators=(",", ":")) + "\n"
#         open(f"tests/golden/figure6_cell_{proto.lower()}.json", "w").write(doc)
#     EOF

from repro.protocols.registry import default_protocols  # noqa: E402


@pytest.mark.parametrize("protocol", default_protocols())
def test_figure6_cell_matches_golden(protocol):
    from repro.exec.runners import execute_spec
    from repro.exec.spec import RunSpec

    spec = RunSpec(kind="burst", protocol=protocol, n=100, seed=0, point="golden-figure6")
    cell = execute_spec(spec)
    current = json.dumps(cell.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    golden = (GOLDEN_DIR / f"figure6_cell_{protocol.lower()}.json").read_text()
    assert current == golden, (
        f"{protocol} Figure-6 cell document diverged from the golden "
        "copy — a kernel/hot-path change perturbed event order or "
        "virtual timestamps; if intentional, regenerate (see comment "
        "above)"
    )


def test_figure6_cell_goldens_are_nontrivial():
    for proto in default_protocols():
        doc = json.loads(
            (GOLDEN_DIR / f"figure6_cell_{proto.lower()}.json").read_text()
        )
        assert doc["committed"] == 100
        assert doc["throughput"] > 0
