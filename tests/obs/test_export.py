"""Exporter tests: JSONL round-trip and Chrome trace_event validity."""

import io
import json

import pytest

from repro.mds.scenarios import distributed_create_cluster
from repro.obs import (
    SpanCollector,
    chrome_trace,
    dump_spans,
    load_spans,
    validate_trace_event,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.sim.monitor import TraceRecord


@pytest.fixture(scope="module")
def traced_cluster():
    """One committed distributed CREATE with full observability."""
    cluster, client = distributed_create_cluster("1PC")
    done = cluster.sim.process(client.create("/dir1/f0"), name="t")
    cluster.sim.run(until=done)
    cluster.sim.run(until=cluster.sim.now + 60.0)
    cluster.obs.spans.close_open()
    return cluster


def test_jsonl_round_trip(traced_cluster):
    roots = traced_cluster.obs.spans.roots()
    buf = io.StringIO()
    assert dump_spans(roots, buf) == len(roots) == 1
    buf.seek(0)
    loaded = load_spans(buf)
    assert loaded[0]["txn_id"] == roots[0].txn_id
    assert loaded[0]["role"] == "coordinator"
    assert loaded[0]["status"] == "committed"
    assert loaded[0]["children"] == [c.span_id for c in roots[0].children]
    assert all(set(e) == {"t", "kind", "actor", "attrs"} for e in loaded[0]["events"])
    # One vocabulary: an exported event's kind is its trace category.
    exported = [(e["t"], e["kind"], e["actor"]) for e in loaded[0]["events"]]
    assert exported == [(r.time, r.category, r.actor) for r in roots[0].events]
    assert {"msg_send", "log_append", "lock_grant"} <= {kind for _, kind, _ in exported}


def test_span_dump_lines_are_sorted_and_stable(traced_cluster):
    buf = io.StringIO()
    dump_spans(traced_cluster.obs.spans.roots(), buf)
    line = buf.getvalue().splitlines()[0]
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_chrome_trace_is_valid_trace_event_json(traced_cluster):
    doc = chrome_trace(traced_cluster.obs.spans, protocol="1PC")
    assert validate_trace_event(doc) == []
    assert doc["otherData"] == {"protocol": "1PC"}
    events = doc["traceEvents"]
    # One process metadata record per MDS node, names stable.
    names = sorted(
        e["args"]["name"] for e in events if e["name"] == "process_name"
    )
    # One track per MDS node, plus the cluster track for events owned
    # by no transaction (e.g. trailing GC).
    assert names == ["cluster", "mds1", "mds2"]
    # The coordinator span renders as a complete event labelled by txn.
    complete = [e for e in events if e["ph"] == "X" and e["cat"] == "coordinator"]
    assert len(complete) == 1
    assert complete[0]["name"].startswith("txn ")
    assert complete[0]["dur"] > 0
    # JSON-serialisable end to end (a lock event's args hold the
    # record's ObjectId, which the writers stringify).
    json.dumps(doc, default=str)


def test_write_chrome_trace_writes_the_document(traced_cluster, tmp_path):
    path = tmp_path / "trace.json"
    with open(path, "w", encoding="utf-8") as fp:
        doc = write_chrome_trace(traced_cluster.obs.spans, fp, protocol="1PC")
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(doc, sort_keys=True, default=str)
    )


def test_chrome_trace_of_empty_collector_flags_no_events():
    empty = SpanCollector(Simulator())
    doc = chrome_trace(empty)
    assert "'traceEvents' is empty" in validate_trace_event(doc)


def test_validator_catches_malformed_documents():
    assert validate_trace_event([]) == ["top level must be a JSON object"]
    assert validate_trace_event({}) == ["'traceEvents' must be a list"]
    bad = {
        "traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
            {"ph": "X", "name": "x", "pid": "p", "tid": 1, "ts": -1, "dur": 1},
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0, "s": "q"},
            {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0, "args": 3},
        ]
    }
    problems = validate_trace_event(bad)
    assert any("bad phase" in p for p in problems)
    assert any("missing name" in p for p in problems)
    assert any("pid must be an integer" in p for p in problems)
    assert any("ts must be a non-negative" in p for p in problems)
    assert any("needs non-negative dur" in p for p in problems)
    assert any("instant scope" in p for p in problems)
    assert any("args must be an object" in p for p in problems)


def test_validator_accepts_cli_chrome_output(tmp_path):
    """End-to-end: the CLI's chrome export passes the CI validator."""
    from repro.cli import main

    out = tmp_path / "cell.json"
    assert main(["trace", "--n", "4", "--format", "chrome", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert validate_trace_event(doc) == []


def test_open_span_exports_with_bounded_duration():
    sim = Simulator()
    spans = SpanCollector(sim)
    span = spans.begin(1, name="CREATE", role="coordinator", actor="mds1")
    span.events.append(TraceRecord(3.0, "msg_send", "mds1", {"kind": "UPDATE_REQ"}))
    doc = chrome_trace(spans)
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert complete[0]["dur"] == pytest.approx(3.0 * 1e6)
    assert validate_trace_event(doc) == []
