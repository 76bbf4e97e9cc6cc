"""The one sanctioned host clock.

Everything the package computes is a function of ``(spec, seed)``;
what the host clock may touch is provenance only — wall seconds of a
sweep, the timestamp in a results document, the ``repro perf`` wall
clock.  Those reads all go through this module, which is the single
file the ``DET001`` lint rule exempts: a wall-clock call anywhere else
in ``src/repro`` is a finding.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone


def monotonic() -> float:
    """Host seconds from an arbitrary origin, for measuring durations."""
    return time.monotonic()


def utc_now_iso() -> str:
    """The current UTC time as an ISO-8601 string, for ``created_at``."""
    return datetime.now(timezone.utc).isoformat()
