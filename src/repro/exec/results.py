"""Machine-readable sweep results.

Every sweep serialises to one JSON document with a stable schema — the
format CI compares byte for byte (serial against parallel) and
``tests/golden/`` pins:

::

    {
      "schema_version": 1,
      "kind": "figure6",
      "git_rev": "<rev of the working tree>",
      "meta": {"created_at": ..., "wall_time_s": ..., "workers": ...,
               "peak_rss_kb": {"self": ...}},
      "cells": [
        {"spec": {...}, "derived_seed": ..., "committed": ...,
         "throughput": ..., "latency": {...}, "forced_writes": ...}, ...
      ]
    }

``cells`` is pure simulation output and therefore deterministic: two
runs of the same grid at the same revision produce byte-identical
``cells`` regardless of worker count.  The volatile provenance fields
(wall time, timestamp, worker count, the ``ru_maxrss`` watermarks in
KiB) live under ``meta``; *canonical* serialisation drops ``meta`` so
the whole document is bit-reproducible — that is the form the byte
comparisons and the goldens use.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.exec.clock import monotonic, peak_rss_kb, utc_now_iso
from repro.exec.executor import ProgressCallback, run_grid
from repro.exec.spec import CellResult, RunSpec

SCHEMA_VERSION = 1


def git_revision(cwd: Optional[str] = None) -> str:
    """The working tree's commit hash, or ``"unknown"`` outside git.

    A tree with uncommitted tracked changes gets a ``-dirty`` suffix,
    so results produced from unreproducible source state say so.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    if out.returncode != 0 or not rev:
        return "unknown"
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return rev
    if status.returncode == 0 and status.stdout.strip():
        return f"{rev}-dirty"
    return rev


@dataclass
class SweepResults:
    """An executed grid plus its provenance."""

    kind: str
    cells: list[CellResult]
    workers: int = 1
    wall_time_s: float = 0.0
    git_rev: str = "unknown"
    created_at: str = field(default_factory=utc_now_iso)
    #: ``ru_maxrss`` watermarks once the grid has run.
    peak_rss: dict[str, int] = field(default_factory=peak_rss_kb)

    def to_dict(self, canonical: bool = False) -> dict[str, Any]:
        """JSON-ready document; ``canonical`` drops the volatile meta."""
        doc: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "git_rev": self.git_rev,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        if not canonical:
            doc["meta"] = {
                "created_at": self.created_at,
                "wall_time_s": self.wall_time_s,
                "workers": self.workers,
                "peak_rss_kb": self.peak_rss,
            }
        return doc

    def to_json(self, canonical: bool = False) -> str:
        return json.dumps(self.to_dict(canonical=canonical), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str, canonical: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(canonical=canonical))


def run_sweep(
    specs: Iterable[RunSpec],
    kind: str,
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> SweepResults:
    """Execute a grid and wrap it with provenance for serialisation."""
    started = monotonic()
    cells = run_grid(specs, workers=workers, progress=progress)
    return SweepResults(
        kind=kind,
        cells=cells,
        workers=workers,
        wall_time_s=monotonic() - started,
        git_rev=git_revision(),
    )
