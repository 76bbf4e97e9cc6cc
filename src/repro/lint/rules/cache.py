"""CACHE — canonical-JSON rules for the executor (the family name is
from the result cache these documents once fed).

A spec's derived seed is a hash of its canonical JSON identity, and
sweep documents are compared byte for byte (serial against parallel,
goldens).  Both only hold if every JSON document ``exec/`` writes is
serialised canonically — ``json.dumps`` with ``sort_keys=True`` —
because dict iteration order is an implementation detail neither a
seed nor an on-disk format may depend on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register


def _sorts_keys(call: ast.Call) -> bool:
    """Whether the call passes a literal ``sort_keys=True``."""
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


@register
class SortedJsonRule(Rule):
    id = "CACHE001"
    summary = "exec JSON serialisation must pass sort_keys=True"
    rationale = (
        "Derived seeds are hashed from a spec's canonical JSON and "
        "sweep documents are compared byte-for-byte (serial-vs-parallel "
        "identity, goldens); json.dumps without sort_keys=True leaks "
        "dict insertion order into both, breaking them the first time "
        "a field is added in a different place."
    )
    good_example = "payload = json.dumps(doc, sort_keys=True)"
    bad_example = "payload = json.dumps(doc)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.in_src and ctx.area == "exec"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.qualified_name(node.func) != "json.dumps":
                continue
            if _sorts_keys(node):
                continue
            yield ctx.finding(
                node,
                self.id,
                "json.dumps on the exec path without sort_keys=True "
                "(identities and on-disk documents must be canonical)",
            )
