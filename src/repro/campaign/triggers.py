"""Serialisable trace triggers for campaign fault schedules.

The hand-written fault scenarios use bare lambdas as trace predicates;
campaign schedules need the same expressive power in a form that (a)
serialises to canonical JSON (the schedule *is* the cache key), and
(b) never scans the trace.  A :class:`TraceTrigger` is a declarative
record filter; :meth:`~TraceTrigger.compile` turns it into a hit
counter the fault plan feeds with each new record of the trigger's
category, so a whole run costs one filter check per such record.

:data:`WINDOWS` names the protocol-critical windows the generator aims
faults at — the narrow intervals §III's correctness argument leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import TraceLog
    from repro.sim.monitor import TraceRecord


@dataclass(frozen=True)
class TraceTrigger:
    """Fire when ``min_count`` trace records match the filter.

    ``where`` holds detail-field equality constraints as a sorted
    tuple of ``(key, value)`` pairs — tuple, not dict, so the trigger
    stays hashable and its canonical form is byte-stable.
    """

    category: str
    actor: Optional[str] = None
    where: Tuple[Tuple[str, Any], ...] = ()
    min_count: int = 1

    def __post_init__(self) -> None:
        if not self.category:
            raise ValueError("TraceTrigger requires a category")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        object.__setattr__(self, "where", tuple(sorted(self.where, key=lambda kv: kv[0])))

    def matches(self, record: "TraceRecord") -> bool:
        """True when one trace record passes every filter."""
        if record.category != self.category:
            return False
        if self.actor is not None and record.actor != self.actor:
            return False
        return all(record.get(key) == value for key, value in self.where)

    def compile(self) -> "CompiledTrigger":
        """A fresh hit counter: one per run, never shared across runs."""
        return CompiledTrigger(self)

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form."""
        return {
            "category": self.category,
            "actor": self.actor,
            "where": dict(self.where),
            "min_count": self.min_count,
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "TraceTrigger":
        """Exact inverse of :meth:`to_dict`."""
        return TraceTrigger(
            category=doc["category"],
            actor=doc.get("actor"),
            where=tuple(doc.get("where", {}).items()),
            min_count=int(doc.get("min_count", 1)),
        )

    def describe(self) -> str:
        """Deterministic one-line label."""
        parts = [self.category]
        if self.actor is not None:
            parts.append(f"actor={self.actor}")
        parts.extend(f"{key}={value!r}" for key, value in self.where)
        if self.min_count != 1:
            parts.append(f"x{self.min_count}")
        return "trigger(" + " ".join(parts) + ")"


class CompiledTrigger:
    """The ``when=`` predicate of one trigger in one run: true once
    ``min_count`` matching records were pushed to :meth:`feed`.  A
    count, not a trace position, so ``TraceLog.clear()`` loses nothing."""

    def __init__(self, trigger: TraceTrigger):
        self.trigger = trigger
        self.category = trigger.category
        self.hits = 0

    def feed(self, record: "TraceRecord") -> None:
        if self.hits < self.trigger.min_count and self.trigger.matches(record):
            self.hits += 1

    def __call__(self, trace: "TraceLog") -> bool:
        return self.hits >= self.trigger.min_count


#: Protocol-critical windows, each bound to a node by :func:`window`.
#:
#: * ``at-vote`` — the node has just received the coordinator's update
#:   request: the worker is between receipt and its forced vote write.
#: * ``after-vote`` — the node has sent UPDATED.  Under 1PC that
#:   message *is* the vote, so a crash here probes the
#:   vote-durable-before-send discipline (§III).
#: * ``after-fence`` — the node has just fenced a peer: the
#:   crash-between-fence-and-remote-log-read recovery window.
#: * ``during-recovery`` — any recovery action has started (restart
#:   mid-recovery probes re-execution idempotence).
#: * ``on-wal-flush`` — the node queued a forced WAL append (pair with
#:   a disk stall to starve the flush).
WINDOWS: dict[str, Callable[[str], TraceTrigger]] = {
    "at-vote": lambda node: TraceTrigger(
        "msg_recv", actor=node, where=(("kind", "UPDATE_REQ"),)
    ),
    "after-vote": lambda node: TraceTrigger(
        "msg_send", actor=node, where=(("kind", "UPDATED"),)
    ),
    "after-fence": lambda node: TraceTrigger("fence", actor=node),
    "during-recovery": lambda node: TraceTrigger("recovery"),
    "on-wal-flush": lambda node: TraceTrigger(
        "log_append", actor=node, where=(("sync", True),)
    ),
}


def window(name: str, node: str) -> TraceTrigger:
    """The named protocol-critical window bound to ``node``."""
    if name not in WINDOWS:
        raise KeyError(f"unknown window {name!r}; have {sorted(WINDOWS)}")
    return WINDOWS[name](node)
