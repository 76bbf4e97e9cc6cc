"""Trace export / import round trips."""

import io
import json
import types

import pytest

from repro.analysis.traceio import (
    TraceFormatError,
    dump_trace,
    load_trace_records,
    summarize,
    trace_to_string,
)
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
    records = load_trace_records(path)
    assert len(records) == count
    assert [r.category for r in records] == [r.category for r in trace.records]
    assert [r.time for r in records] == [r.time for r in trace.records]


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
    records = load_trace_records(io.StringIO(text))
    lock_grants = [r for r in records if r.category == "lock_grant"]
    assert lock_grants and isinstance(lock_grants[0].detail["obj"], str)


def test_summarize_counts_categories():
    trace = traced_run()
    counts = summarize(trace.records)
    assert counts["msg_send"] >= 3
    assert counts["log_append"] >= 3
    assert sum(counts.values()) == len(trace)


def test_load_skips_blank_lines():
    records = load_trace_records(io.StringIO('\n{"t":1,"cat":"x","actor":"a"}\n\n'))
    assert len(records) == 1
    assert records[0].detail == {}


def test_a_dump_of_a_live_trace_round_trips_exactly():
    text = trace_to_string(traced_run())
    records = load_trace_records(io.StringIO(text))
    # Loading stringifies nothing further: dumping what was loaded gives
    # the same bytes, and loading those the same records.
    again = trace_to_string(types.SimpleNamespace(records=records))
    assert again == text
    assert load_trace_records(io.StringIO(again)) == records


GOOD = '{"t": 1.5, "cat": "x", "actor": "a", "detail": {}}'


@pytest.mark.parametrize(
    "line, problem",
    [
        ('{"t": 1.5, "cat": "x", "act', "not JSON"),  # truncated mid-write
        ("[1.5]", "not a JSON object"),
        ('{"cat": "x", "actor": "a"}', "missing 't'"),
        ('{"t": 1.5, "actor": "a"}', "missing 'cat'"),
        ('{"t": 1.5, "cat": "x"}', "missing 'actor'"),
        ('{"t": "soon", "cat": "x", "actor": "a"}', "'t' must be a number"),
        ('{"t": true, "cat": "x", "actor": "a"}', "'t' must be a number"),
        ('{"t": 1.5, "cat": 7, "actor": "a"}', "must be strings"),
        ('{"t": 1.5, "cat": "x", "actor": "a", "detail": []}', "'detail' must be an object"),
    ],
)
def test_a_malformed_line_is_a_typed_error_naming_line_and_field(line, problem):
    # Line 1 is good, line 2 blank, the bad one is line 3.
    with pytest.raises(TraceFormatError, match=f"line 3: .*{problem}") as caught:
        load_trace_records(io.StringIO(f"{GOOD}\n\n{line}\n"))
    assert isinstance(caught.value, ValueError)
