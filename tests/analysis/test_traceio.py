"""Trace export: one JSON object per record, byte-stable."""

import io
import json

from repro.analysis.traceio import dump_trace, trace_to_string
from tests.protocols.conftest import drain, make_cluster, run_create


def traced_run():
    cluster, client = make_cluster("1PC")
    run_create(cluster, client)
    drain(cluster)
    return cluster.trace


def test_dump_and_load_roundtrip(tmp_path):
    trace = traced_run()
    path = tmp_path / "trace.jsonl"
    count = dump_trace(trace, path)
    assert count == len(trace)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == count
    assert [r["cat"] for r in records] == [r.category for r in trace.records]
    assert [r["t"] for r in records] == [r.time for r in trace.records]


def test_dump_to_stream():
    trace = traced_run()
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    lines = [line for line in buffer.getvalue().splitlines() if line]
    assert len(lines) == len(trace)
    # Every line is valid JSON with the expected keys.
    for line in lines[:5]:
        raw = json.loads(line)
        assert set(raw) == {"t", "cat", "actor", "detail"}


def test_trace_string_is_deterministic():
    a = trace_to_string(traced_run())
    b = trace_to_string(traced_run())
    assert a == b


def test_nonjson_payloads_are_stringified():
    trace = traced_run()
    text = trace_to_string(trace)
    # Lock records carry ObjectId payloads; they must serialise.
    assert "dir:/dir1" in text or "dir1" in text
    records = [json.loads(line) for line in text.splitlines()]
    lock_grants = [r for r in records if r["cat"] == "lock_grant"]
    assert lock_grants and isinstance(lock_grants[0]["detail"]["obj"], str)
