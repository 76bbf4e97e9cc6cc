"""Trace collection.

``TraceLog`` is the statistics module of the simulated cluster (the
paper's ACID Sim Tools has a dedicated ``statistics`` module).  Every
subsystem emits :class:`TraceRecord` entries tagged with a category
(``msg_send``, ``log_append``, ``lock_grant``, ``txn_start``,
``crash``...).

The log is the cluster's one event stream, and the
:class:`~repro.obs.hub.Observability` hub is its one writer: a hook
folds its own arguments into the hub's counts and histograms, then
builds a record in its own frame and hands it to the hub's sink —
this log's bound ``records.append`` while nothing listens, else the
hub's dispatch to the stream and the listeners.  Golden-trace tests,
fault triggers, the timeline renderer and the utilisation folds read
the records directly; transaction spans (:mod:`repro.obs`) are filed
from the same record objects when they are read, from where the last
read stopped.  :meth:`TraceLog.clear` lets that fold catch up before
it drops anything.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


def nothing_to_fold() -> None:
    """The fold of a view that reads no stream: always up to date."""


class TraceRecord(tuple):
    """One timestamped observation: the 5-tuple ``(time, category,
    actor, detail, node)``, built as ``TraceRecord((time, category,
    actor, detail, node))``.

    A slotted ``tuple``: a traced run builds one per hook call, and
    calling the class runs no Python frame.  The fields are read-only
    properties over ``itemgetter``, which run none either.

    ``node`` names the span leg its hook files it under,
    ``(detail["txn"], node)`` — cluster scope when there is no ``txn`` —
    or is ``None`` for a record on no span.  It is the actor's own name,
    except for a lock manager's records, which name the node the
    manager serves; a reference, so it costs no allocation.  It is
    bookkeeping, not an observation, so equality, ``repr`` and the
    JSON-lines trace leave it out; a pickle keeps it.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    category = property(itemgetter(1))
    actor = property(itemgetter(2))
    detail = property(itemgetter(3))
    node = property(itemgetter(4))

    def get(self, key: str, default: Any = None) -> Any:
        return self[3].get(key, default)

    # ``tuple`` would compare ``node`` too; defining ``__eq__`` also
    # leaves the record unhashable, as its ``detail`` dict is.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return self[:4] != other[:4]

    def __repr__(self) -> str:
        time, category, actor, detail = self[:4]
        return (
            f"TraceRecord(time={time!r}, category={category!r}, "
            f"actor={actor!r}, detail={detail!r})"
        )


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

    def clear(self) -> int:
        """Drop all records (e.g. after a warm-up phase); returns how
        many were dropped.  The views folded from them lose nothing."""
        self.before_clear()
        dropped = len(self.records)
        self.dropped += dropped
        self.records.clear()
        return dropped

