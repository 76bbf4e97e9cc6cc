"""Trace collection.

``TraceLog`` is the statistics module of the simulated cluster (the
paper's ACID Sim Tools has a dedicated ``statistics`` module).  Every
subsystem emits :class:`TraceRecord` entries tagged with a category
(``msg_send``, ``log_append``, ``lock_grant``, ``txn_start``,
``crash``...).

The log is the cluster's one event stream: instrumentation reaches it
only through the :class:`~repro.obs.hub.Observability` hub, which
appends one record per hook call.  Golden-trace tests, fault triggers,
the timeline renderer and the utilisation folds read the records
directly; transaction spans and metrics (:mod:`repro.obs`) are views
the hub derives from the same record objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped observation.

    Slotted: a traced run allocates one per hook call, and a record
    without a ``__dict__`` is 64 bytes instead of 160 and cheaper to
    build.
    """

    time: float
    category: str
    actor: str
    detail: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.detail.get(key, default)


class TraceLog:
    """An append-only, queryable event trace."""

    def __init__(self, sim: "Simulator", enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def emit(self, category: str, actor: str, **detail: Any) -> None:
        if not self.enabled:
            return
        self.records.append(TraceRecord(self.sim.now, category, actor, detail))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- queries ------------------------------------------------------------------

    def select(
        self,
        category: Optional[str] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        **detail_filters: Any,
    ) -> list[TraceRecord]:
        """All records matching every given filter."""
        out = []
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if actor is not None and rec.actor != actor:
                continue
            if detail_filters and any(
                rec.detail.get(k) != v for k, v in detail_filters.items()
            ):
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def count(self, category: Optional[str] = None, **detail_filters: Any) -> int:
        return len(self.select(category=category, **detail_filters))

    def categories(self) -> dict[str, int]:
        """Category -> record count, sorted by category."""
        counts: dict[str, int] = {}
        for rec in self.records:
            counts[rec.category] = counts.get(rec.category, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> int:
        """Drop all records (e.g. after a warm-up phase); returns how
        many were dropped."""
        dropped = len(self.records)
        self.records.clear()
        return dropped

