"""Span exporters: JSONL dumps and Chrome ``trace_event`` JSON.

Two on-disk formats:

* **JSONL spans** — one span per line, plain data, ``sort_keys`` so
  dumps diff cleanly.  The analysis layer can reload these with
  :func:`load_spans`.
* **Chrome trace_event JSON** — the format Perfetto and
  ``chrome://tracing`` open directly.  Each MDS node becomes a
  *process*, each transaction a *thread* inside it; a span renders as a
  complete ("X") event and its trace records as instants ("i").

In both, an event's ``kind`` / ``name`` is the trace record's category
and its ``attrs`` / ``args`` are the record's detail; the writers
stringify non-JSON values (a lock record's ``ObjectId``) as the flat
trace dump does, so serialise a document built by hand with
``json.dumps(doc, default=str)``.

Simulated time is in seconds; trace_event timestamps are microseconds,
hence the ``* 1e6`` scaling throughout.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional, TextIO

from repro.obs.span import Span, SpanCollector
from repro.sim.monitor import TraceRecord

_US = 1e6  # simulated seconds -> trace_event microseconds


# ---------------------------------------------------------------------------
# JSONL spans
# ---------------------------------------------------------------------------


def span_to_dict(span: Span) -> dict[str, Any]:
    """Plain-data form of one span (children referenced by id)."""
    return {
        "span_id": span.span_id,
        "txn_id": span.txn_id,
        "name": span.name,
        "role": span.role,
        "actor": span.actor,
        "protocol": span.protocol,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "attrs": span.attrs,
        "events": [
            {"t": e.time, "kind": e.category, "actor": e.actor, "attrs": e.detail}
            for e in span.events
        ],
        "children": [child.span_id for child in span.children],
    }


def dump_spans(spans: Iterable[Span], fp: TextIO) -> int:
    """Write spans as JSONL; returns the number written."""
    n = 0
    for span in spans:
        fp.write(json.dumps(span_to_dict(span), sort_keys=True, default=str) + "\n")
        n += 1
    return n


def load_spans(fp: TextIO) -> list[dict[str, Any]]:
    """Reload a JSONL span dump as plain dicts."""
    return [json.loads(line) for line in fp if line.strip()]


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def _pid_map(spans: list[Span]) -> dict[str, int]:
    """Stable actor -> pid numbering (sorted for determinism)."""
    actors = sorted({span.actor for span in spans})
    return {actor: pid for pid, actor in enumerate(actors, start=1)}


def _span_complete_event(span: Span, pid: int) -> dict[str, Any]:
    end = span.end if span.end is not None else span.last_time()
    label = f"txn {span.txn_id} {span.name}" if span.role == "coordinator" else span.name
    return {
        "name": label,
        "cat": span.role,
        "ph": "X",
        "pid": pid,
        "tid": span.txn_id,
        "ts": span.start * _US,
        "dur": max(0.0, (end - span.start)) * _US,
        "args": {
            "txn": span.txn_id,
            "status": span.status,
            "protocol": span.protocol,
            **span.attrs,
        },
    }


def _instant_events(records: list[TraceRecord], pid: int, tid: int) -> list[dict[str, Any]]:
    """The records of one span (or of the cluster scope) as instants."""
    return [
        {
            "name": event.category,
            "cat": event.category,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "pid": pid,
            "tid": tid,
            "ts": event.time * _US,
            "args": dict(event.detail),
        }
        for event in records
    ]


def chrome_trace(
    collector: SpanCollector, protocol: str = "", include_cluster_events: bool = True
) -> dict[str, Any]:
    """Render a span collection as a Chrome ``trace_event`` document.

    Layout: pid = MDS node, tid = transaction id, so Perfetto shows one
    track per node with that node's transaction legs stacked inside it.
    """
    spans = list(collector)
    pids = _pid_map(spans)
    events: list[dict[str, Any]] = []
    for actor, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": actor},
            }
        )
    for span in spans:
        pid = pids[span.actor]
        events.append(_span_complete_event(span, pid))
        events += _instant_events(span.events, pid, span.txn_id)
    if include_cluster_events and collector.cluster_events:
        cluster_pid = len(pids) + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": cluster_pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": "cluster"},
            }
        )
        events += _instant_events(collector.cluster_events, cluster_pid, 0)
    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if protocol:
        doc["otherData"] = {"protocol": protocol}
    return doc


#: Phases the validator accepts (the subset this exporter emits).
_VALID_PHASES = frozenset({"X", "i", "M", "B", "E", "b", "e", "n", "s", "t", "f", "C"})


def validate_trace_event(doc: Any) -> list[str]:
    """Validate a trace_event document; returns a list of problems.

    An empty list means the document is structurally valid.  This is
    deliberately a schema check (shape + required fields), not a
    semantic one — it is what CI runs against `repro trace` output.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs non-negative dur")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: instant scope must be t/p/g")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


def write_chrome_trace(
    collector: SpanCollector,
    fp: TextIO,
    protocol: str = "",
    indent: Optional[int] = None,
) -> dict[str, Any]:
    """Render + write a Chrome trace; returns the document."""
    doc = chrome_trace(collector, protocol=protocol)
    json.dump(doc, fp, indent=indent, sort_keys=True, default=str)
    fp.write("\n")
    return doc
