"""The one sanctioned reader of host state.

Everything the package computes is a function of ``(spec, seed)``;
what the host may touch is provenance only — wall seconds of a sweep,
the timestamp in a results document, the process's peak RSS.  Those
reads all go through this module, which is the single file the
``DET001`` lint rule exempts: a wall-clock call anywhere else in
``src/repro`` is a finding.
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


def peak_rss_kb() -> dict[str, int]:
    """The process's ``ru_maxrss`` high watermark, KiB (Linux).

    Pool children are not counted: on Linux a fork+exec child inherits
    its parent's watermark, so ``RUSAGE_CHILDREN`` cannot say what the
    workers used.  Returns zero on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return {"self": 0}
    return {"self": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)}
