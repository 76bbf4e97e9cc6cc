"""Trace export / import.

Simulation traces are the primary debugging artifact; this module
serialises them to JSON-lines so runs can be archived, diffed between
revisions (determinism makes traces byte-stable) and inspected with
standard tooling (jq, grep).

Non-JSON payload values (ObjectId, enums) are stringified on export;
the import therefore yields records whose detail values are plain JSON
types — fine for inspection and diffing, which is what the format is
for.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Any, Iterable, Union

from repro.sim import TraceLog
from repro.sim.monitor import TraceRecord


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


class TraceFormatError(ValueError):
    """A trace line that is not a record: names the 1-based line and
    what is wrong with it."""


def _record_of(raw: Any) -> TraceRecord:
    """A parsed line as a record.  The file may be truncated or edited
    by hand, so nothing in it is taken on trust: a line that loads must
    not fail later inside a fold."""
    if not isinstance(raw, dict):
        raise ValueError("not a JSON object")
    for key in ("t", "cat", "actor"):
        if key not in raw:
            raise ValueError(f"missing {key!r}")
    if isinstance(raw["t"], bool) or not isinstance(raw["t"], (int, float)):
        raise ValueError("'t' must be a number")
    if not isinstance(raw["cat"], str) or not isinstance(raw["actor"], str):
        raise ValueError("'cat' and 'actor' must be strings")
    detail = raw.get("detail", {})
    if not isinstance(detail, dict):
        raise ValueError("'detail' must be an object")
    return TraceRecord((raw["t"], raw["cat"], raw["actor"], detail, None))


def load_trace_records(source: Union[str, Path, IO[str]]) -> list[TraceRecord]:
    """Read JSON-lines records back (detail values are JSON types);
    raises :class:`TraceFormatError` for a line that is not a record."""
    own = isinstance(source, (str, Path))
    stream: IO[str] = open(source) if own else source  # type: ignore[arg-type]
    try:
        records = []
        for number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                records.append(_record_of(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {number}: not JSON ({exc.msg})") from None
            except ValueError as exc:
                raise TraceFormatError(f"line {number}: {exc}") from None
        return records
    finally:
        if own:
            stream.close()


def trace_to_string(trace: TraceLog) -> str:
    """The JSONL dump as one string (handy for golden-trace diffs)."""
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()


def summarize(records: Iterable[TraceRecord]) -> dict[str, int]:
    """Record counts per category."""
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.category] = counts.get(rec.category, 0) + 1
    return dict(sorted(counts.items()))
