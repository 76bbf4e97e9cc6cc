"""The million-transaction scale run (``repro perf``).

Host performance is measured by the ledger (``benchmarks/ledger/``,
``BENCHMARK.json``).  What lives here is the one run the ledger does
not hold yet: the capstone scale run, minutes long — a composite
mdtest-like workload committing over a million transactions through the
streaming-statistics path (see ``docs/performance.md``).

The JSON document (``BENCH_perf.json``, schema v3) mirrors the
sweep-results style: deterministic simulation facts (event count,
committed count, virtual makespan) next to volatile host measurements,
with provenance under ``meta`` and the ``ru_maxrss`` watermarks (KiB
on Linux) under ``peak_rss_kb``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.exec.clock import monotonic, utc_now_iso
from repro.exec.results import git_revision
from repro.obs.hub import SAMPLE_EVERY
from repro.workloads.composite import CompositeConfig, run_composite

PERF_SCHEMA_VERSION = 3


def peak_rss_kb() -> dict[str, int]:
    """``ru_maxrss`` high watermarks, KiB (Linux): self + pool children.

    Returns zeros on platforms without the ``resource`` module.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return {"self": 0, "children": 0}
    return {
        "self": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "children": int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }


@dataclass(frozen=True)
class WorkloadRun:
    """One measured workload: simulation facts plus its wall clock.

    ``events``, ``txns`` and ``sim_time`` are deterministic (identical
    on every host at a given revision); ``wall_s`` and the derived
    rates are host-dependent.
    """

    name: str
    events: int
    txns: int
    sim_time: float
    wall_s: float
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def txns_per_s(self) -> float:
        return self.txns / self.wall_s if self.wall_s > 0 else float("inf")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "events": self.events,
            "txns": self.txns,
            "sim_time": self.sim_time,
            "wall_s": self.wall_s,
            "events_per_s": self.events_per_s,
            "txns_per_s": self.txns_per_s,
            # Schema v3 key; the scale run is always measured once.
            "repeats": 1,
            "detail": self.detail,
        }


@dataclass
class PerfResults:
    """The full ``repro perf`` run, serialisable as ``BENCH_perf.json``."""

    workloads: list[WorkloadRun]
    wall_time_s: float = 0.0
    git_rev: str = "unknown"
    created_at: str = field(default_factory=utc_now_iso)
    #: ``ru_maxrss`` watermarks at the end of the run.
    peak_rss: dict[str, int] = field(default_factory=peak_rss_kb)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": PERF_SCHEMA_VERSION,
            "kind": "perf",
            "git_rev": self.git_rev,
            "meta": {
                "created_at": self.created_at,
                "wall_time_s": self.wall_time_s,
            },
            "peak_rss_kb": self.peak_rss,
            "workloads": [w.to_dict() for w in self.workloads],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")


def run_million_txn(ops: int = 1_300_000, groups: int = 8, protocol: str = "1PC") -> WorkloadRun:
    """The capstone scale run: >1M committed transactions, O(1) memory.

    Two composite runs back to back: a base run at one tenth the
    operation count, then the full run.  Each records the process's
    ``ru_maxrss`` watermark afterwards; because the watermark is
    monotone, ``rss_ratio = full/base`` close to 1.0 is direct evidence
    the streaming-statistics path holds peak memory flat while the
    transaction count grows 10x.  ``attribution`` is the full run's
    latency components per op, over the 1 transaction in
    ``sample_every`` its hubs attribute.
    """

    def config(n: int) -> CompositeConfig:
        return CompositeConfig(ops=n, groups=groups, window=16, working_set=256)

    started = monotonic()
    base = run_composite(protocol, config(ops // 10))
    base_rss = peak_rss_kb()["self"]
    full = run_composite(protocol, config(ops))
    full_rss = peak_rss_kb()["self"]
    wall = monotonic() - started
    if full.committed < 1_000_000:
        raise RuntimeError(
            f"million-txn committed only {full.committed:,} transactions "
            f"(needs >= 1,000,000; raise ops from {ops:,})"
        )
    return WorkloadRun(
        name="million-txn",
        events=full.events,
        txns=full.committed,
        sim_time=full.makespan,
        wall_s=wall,
        detail={
            "protocol": protocol,
            "ops": ops,
            "groups": groups,
            "skipped": full.skipped,
            "reads": full.reads,
            "latency_mode": full.latency.mode,
            "p99_ms": full.latency.quantile(99.0) * 1e3,
            "base_ops": ops // 10,
            "base_committed": base.committed,
            "rss_base_kb": base_rss,
            "rss_full_kb": full_rss,
            "rss_ratio": full_rss / base_rss if base_rss else 0.0,
            "attribution": {
                "sample_every": SAMPLE_EVERY,
                "components": {
                    "/".join(key): {
                        "count": stats.count,
                        "mean": stats.mean,
                        "p50": stats.quantile(50.0),
                        "p99": stats.quantile(99.0),
                    }
                    for key, stats in full.attribution.items()
                },
            },
        },
    )


def run_perf(progress: Optional[Callable[[str], None]] = None) -> PerfResults:
    """Measure the scale run once and wrap it with provenance."""
    if progress is not None:
        progress("measuring million-txn (minutes)...")
    run = run_million_txn()
    return PerfResults(workloads=[run], wall_time_s=run.wall_s, git_rev=git_revision())


def render_perf(results: PerfResults) -> str:
    """Human-readable table of a perf run."""
    lines = [
        "Wall-clock scale run",
        f"{'Workload':<16} {'events':>11} {'wall (s)':>10} {'events/s':>12} {'txns/s':>10}",
    ]
    for run in results.workloads:
        lines.append(
            f"{run.name:<16} {run.events:>11,} {run.wall_s:>10.1f} "
            f"{run.events_per_s:>12,.0f} {run.txns_per_s:>10,.0f}"
        )
    lines.append(f"peak RSS: {results.peak_rss['self'] / 1024:.0f} MiB")
    return "\n".join(lines)
