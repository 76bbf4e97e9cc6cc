"""OBS — instrumentation-cost rules.

PR 2's contract (docs/observability.md, and the CI smoke bench that
gates it): with the hub disabled, tracing costs near zero.  That only
holds if every public hook checks ``enabled`` *before* doing any other
work — in particular before formatting strings or building the detail
dictionary of the record it hands to the hub's one sink,
``self._sink(TraceRecord(...))``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.lint.context import FileContext, body_statements, walk_own
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: The hub's one write path; a public method reaching it is a hook.
_SINK = frozenset({"_sink"})

#: The stream and its two views: reaching through one of these (span
#: lifecycle hooks do) marks a method as a hook too.
_VIEWS = frozenset({"trace", "spans", "metrics"})

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_exempt(fn: _FuncDef) -> bool:
    """Dunder/private methods and non-instance methods are exempt."""
    if fn.name.startswith("_"):
        return True
    for decorator in fn.decorator_list:
        name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", "")
        if name in ("staticmethod", "classmethod", "property", "cached_property"):
            return True
    return False


def _is_self_attr(node: ast.AST, names: frozenset[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in names
    )


def _reaches_sink(fn: _FuncDef) -> bool:
    """Whether the method reaches ``self._sink`` or reads through
    ``self.trace/spans/metrics``."""
    for node in walk_own(fn):
        if _is_self_attr(node, _SINK):
            return True
        if isinstance(node, ast.Attribute) and _is_self_attr(node.value, _VIEWS):
            return True
    return False


def _is_enabled_guard(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is an ``enabled`` check (either polarity)."""
    if not isinstance(stmt, ast.If):
        return False
    for node in ast.walk(stmt.test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
    return False


@register
class EnabledGuardRule(Rule):
    id = "OBS001"
    summary = "instrumentation hooks must early-out on `enabled` first"
    rationale = (
        "Hooks run on every message, log write and lock transition; "
        "any work before the enabled check (string formatting, dict "
        "building) is paid even when tracing is off, eroding the "
        "near-zero-cost guarantee the smoke bench gates."
    )
    good_example = (
        "def on_send(self, msg):\n"
        "    if not self.enabled:\n"
        "        return\n"
        '    self._sink(TraceRecord((self.sim.now, "msg_send", msg.src, {"dst": msg.dst}, None)))'
    )
    bad_example = (
        "def on_send(self, msg):\n"
        '    detail = {"dst": msg.dst}  # paid even when disabled\n'
        "    if self.enabled:\n"
        '        self._sink(TraceRecord((self.sim.now, "msg_send", msg.src, detail, None)))'
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.in_src and ctx.area == "obs"):
            return
        for klass in ast.walk(ctx.tree):
            if not isinstance(klass, ast.ClassDef):
                continue
            for fn in klass.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_exempt(fn) or not _reaches_sink(fn):
                    continue
                body = body_statements(fn)
                if body and _is_enabled_guard(body[0]):
                    continue
                yield ctx.finding(
                    fn,
                    self.id,
                    f"hook {klass.name}.{fn.name} reaches the sink without an "
                    "`enabled` early-out as its first statement",
                )
