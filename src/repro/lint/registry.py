"""The rule registry: every rule registers itself at import time."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional, Type, TypeVar

from repro.lint.context import FileContext
from repro.lint.findings import Finding


class Rule(ABC):
    """One static check.

    Subclasses set ``id`` (``DET003``), a one-line ``summary``, and a
    ``rationale`` tying the rule to the paper/repo requirement it
    protects, then implement :meth:`check`.  ``good_example`` /
    ``bad_example`` are short idiom snippets printed by
    ``repro lint --explain RULE-ID``.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    good_example: str = ""
    bad_example: str = ""

    @property
    def family(self) -> str:
        """``DET003`` -> ``DET``."""
        return self.id.rstrip("0123456789")

    @abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}

R = TypeVar("R", bound=Type[Rule])


def register(cls: R) -> R:
    """Class decorator adding a rule instance to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}; have {sorted(_REGISTRY)}") from None


def select_rules(ids: Optional[Iterable[str]] = None) -> list[Rule]:
    """The rules to run: all of them, or the ids/families in ``ids``."""
    rules = all_rules()
    if ids is None:
        return rules
    wanted = {token.strip() for token in ids if token.strip()}
    unknown = wanted - {r.id for r in rules} - {r.family for r in rules}
    if unknown:
        raise KeyError(f"unknown rule(s) {sorted(unknown)}")
    return [r for r in rules if r.id in wanted or r.family in wanted]
