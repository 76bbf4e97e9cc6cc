"""Trace export.

Simulation traces are the primary debugging artifact; this module
serialises them to JSON lines so runs can be archived, diffed between
revisions (determinism makes traces byte-stable) and inspected with
standard tooling (jq, grep).  Non-JSON payload values (ObjectId,
enums) are stringified.  Nothing reads the format back: a diff or a
``jq`` query is what it is for.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Any, Union

from repro.sim import TraceLog


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    return str(value)


def dump_trace(trace: TraceLog, target: Union[str, Path, IO[str]]) -> int:
    """Write ``trace`` as JSON lines; returns the record count."""
    own = isinstance(target, (str, Path))
    stream: IO[str] = open(target, "w") if own else target  # type: ignore[arg-type]
    try:
        count = 0
        for rec in trace.records:
            stream.write(
                json.dumps(
                    {
                        "t": rec.time,
                        "cat": rec.category,
                        "actor": rec.actor,
                        "detail": _jsonable(rec.detail),
                    },
                    sort_keys=True,
                )
            )
            stream.write("\n")
            count += 1
        return count
    finally:
        if own:
            stream.close()


def trace_to_string(trace: TraceLog) -> str:
    """The JSONL dump as one string (handy for golden-trace diffs)."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()
