"""Serialisable trace triggers: when a fault that has no ``at=`` fires.

A :class:`TraceTrigger` is a declarative record filter — category,
actor, detail-field equalities, a hit count — that (a) serialises to
canonical JSON (a campaign schedule is part of its cell's identity)
and (b) never scans the trace: :meth:`~TraceTrigger.compile` makes the per-run hit
counter the fault plan feeds with each new record of the trigger's
category, so a whole run costs one filter check per such record.

:data:`WINDOWS` names the protocol-critical windows the campaign
generator aims faults at — the narrow intervals §III's correctness
argument leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import TraceRecord


class ScheduleFormatError(ValueError):
    """A trigger, fault, schedule or repro document that does not parse.
    The message starts with the path of the offending field
    (``faults[1].restart_afer``)."""


NUMBER = (int, float)


def field_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def read_fields(
    doc: Any, path: str, required: dict[str, Any], optional: Optional[dict[str, Any]] = None
) -> None:
    """``doc`` held to its fields (name -> class or classes): an object
    with no key outside ``required`` and ``optional``, none of
    ``required`` missing and no value of another class, else
    :class:`ScheduleFormatError` naming the field under ``path``.
    Classes are compared, not asked with ``isinstance``: a JSON parser
    makes no subclasses, a ``bool`` is not an ``int`` here, and every
    campaign cell parses its schedule on the ledger's call count."""
    if doc.__class__ is not dict:
        raise ScheduleFormatError(
            f"{path or 'document'}: expected an object, got {doc.__class__.__name__}"
        )
    fields = {**required, **(optional or {})}
    for key in (*doc, *required):
        if key not in fields:
            raise ScheduleFormatError(f"{field_path(path, key)}: unknown field")
        if key not in doc:
            raise ScheduleFormatError(f"{field_path(path, key)}: missing")
        cls, want = doc[key].__class__, fields[key]
        if cls is not want and (want.__class__ is not tuple or cls not in want):
            raise ScheduleFormatError(
                f"{field_path(path, key)}: wrong type {cls.__name__} ({doc[key]!r})"
            )


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

    def compile(self) -> "TriggerCounter":
        """A fresh hit counter: one per installed plan."""
        return TriggerCounter(self)

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form."""
        return {
            "category": self.category,
            "actor": self.actor,
            "where": dict(self.where),
            "min_count": self.min_count,
        }

    @staticmethod
    def from_dict(doc: Any, path: str = "trigger") -> "TraceTrigger":
        """Exact inverse of :meth:`to_dict`; anything else is a
        :class:`ScheduleFormatError` naming the field under ``path``."""
        fields = {"category": str, "actor": (str, type(None)), "where": dict, "min_count": int}
        read_fields(doc, path, fields)
        try:
            return TraceTrigger(**{**doc, "where": tuple(doc["where"].items())})
        except ValueError as err:
            raise ScheduleFormatError(f"{path}: {err}") from None

    def describe(self) -> str:
        """Deterministic one-line label."""
        parts = [self.category]
        if self.actor is not None:
            parts.append(f"actor={self.actor}")
        parts.extend(f"{key}={value!r}" for key, value in self.where)
        if self.min_count != 1:
            parts.append(f"x{self.min_count}")
        return "trigger(" + " ".join(parts) + ")"


class TriggerCounter:
    """One trigger in one run: the matching records pushed to
    :meth:`feed` so far, capped at ``min_count``.  A count, not a trace
    position, so ``TraceLog.clear()`` loses nothing."""

    def __init__(self, trigger: TraceTrigger):
        self.trigger = trigger
        self.min_count = trigger.min_count
        self.hits = 0

    def feed(self, record: "TraceRecord") -> bool:
        """Count ``record`` if it matches; True for the hit that reaches
        ``min_count``."""
        if self.hits < self.min_count and self.trigger.matches(record):
            self.hits += 1
            return self.hits == self.min_count
        return False


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
