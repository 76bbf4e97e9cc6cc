"""Trace collection.

``TraceLog`` is the statistics module of the simulated cluster (the
paper's ACID Sim Tools has a dedicated ``statistics`` module).  Every
subsystem emits :class:`TraceRecord` entries tagged with a category
(``msg_send``, ``log_append``, ``lock_grant``, ``txn_start``,
``crash``...).

The log is the cluster's one event stream, and the
:class:`~repro.obs.hub.Observability` hub is its one writer: a hook
folds its own arguments into the hub's counts and histograms, then
allocates a record, appends it here and hands it to the hub's
listeners.  Golden-trace tests, fault triggers, the timeline renderer
and the utilisation folds read the records directly; transaction
spans (:mod:`repro.obs`) are filed from the same record objects when
they are read, from where the last read stopped.
:meth:`TraceLog.clear` lets that fold catch up before it drops
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


def nothing_to_fold() -> None:
    """The fold of a view that reads no stream: always up to date."""


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped observation.

    Slotted: a traced run allocates one per hook call, and a record
    without a ``__dict__`` is 72 bytes instead of 160 and cheaper to
    build.

    ``node`` names the span leg its hook files it under,
    ``(detail["txn"], node)`` — cluster scope when there is no ``txn`` —
    or is ``None`` for a record on no span.  It is the actor's own name,
    except for a lock manager's records, which name the node the
    manager serves; a reference, so it costs no allocation.  It is
    bookkeeping, not an observation, so equality, ``repr`` and every
    serialised form leave it out.
    """

    time: float
    category: str
    actor: str
    detail: dict[str, Any] = field(default_factory=dict)
    node: Optional[str] = field(default=None, compare=False, repr=False)

    def get(self, key: str, default: Any = None) -> Any:
        return self.detail.get(key, default)


class TraceLog:
    """An append-only, queryable event trace.

    A record's *stream position* is ``dropped + i`` for ``records[i]``:
    it counts every record ever appended, so it survives :meth:`clear`.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.records: list[TraceRecord] = []
        #: Records :meth:`clear` has dropped so far.
        self.dropped = 0
        #: Called before :meth:`clear` drops anything, so the views folded
        #: from the records (the hub's) catch up first.
        self.before_clear: Callable[[], None] = nothing_to_fold

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
        many were dropped.  The views folded from them lose nothing."""
        self.before_clear()
        dropped = len(self.records)
        self.dropped += dropped
        self.records.clear()
        return dropped

