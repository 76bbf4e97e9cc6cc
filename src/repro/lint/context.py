"""Per-file analysis context shared by all rules.

One :class:`FileContext` is built per linted file: the parsed AST, a
parent map, an import table for resolving dotted call names, and the
path-classification helpers rules scope themselves with (``in_src``,
``in_tests``, ``area`` ...).

A file can be linted *as if* it lived at another path — the test
fixtures exercise path-scoped rules (e.g. "only in ``src/repro/sim``")
from ``tests/lint/fixtures`` with a header directive::

    # repro: path src/repro/sim/fixture.py
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.lint.findings import Finding

#: Module areas whose event ordering feeds the deterministic schedule.
EVENT_ORDERING_AREAS = frozenset({"sim", "net", "locks", "core"})

_PATH_RE = re.compile(r"^#\s*repro:\s*path\s+(?P<path>\S+)\s*$")


def virtual_path(source: str, max_lines: int = 5) -> Optional[str]:
    """The ``# repro: path ...`` directive, if present in the header."""
    for lineno, text in enumerate(source.splitlines(), start=1):
        if lineno > max_lines:
            break
        match = _PATH_RE.match(text.strip())
        if match is not None:
            return match.group("path")
    return None


class FileContext:
    """Everything a rule needs to analyse one file."""

    def __init__(self, path: Union[str, Path], source: str, tree: ast.Module) -> None:
        self.path = Path(path)
        #: Path used for reporting (posix, relative where possible).
        self.display_path = self.path.as_posix()
        #: Path used for *scoping* — a ``# repro: path`` directive
        #: (test fixtures) overrides the real location.
        self.lint_path = virtual_path(source) or self.display_path
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.imports = _import_table(tree)

    # -- path classification -------------------------------------------------

    @property
    def module_parts(self) -> tuple[str, ...]:
        """Path components below the ``repro`` package, if any."""
        parts = Path(self.lint_path).as_posix().split("/")
        for anchor in ("repro", "src"):
            if anchor in parts:
                index = parts.index(anchor)
                below = parts[index + 1 :]
                if anchor == "src" and below and below[0] == "repro":
                    below = below[1:]
                if below:
                    return tuple(below)
        return ()

    @property
    def in_tests(self) -> bool:
        parts = Path(self.lint_path).as_posix().split("/")
        return "tests" in parts

    @property
    def in_src(self) -> bool:
        return not self.in_tests and bool(self.module_parts)

    @property
    def area(self) -> str:
        """The top-level subpackage (``net``, ``sim`` ...), or ``""``."""
        parts = self.module_parts
        return parts[0] if len(parts) > 1 else ""

    def is_module(self, *tails: str) -> bool:
        """Whether the file is one of the named ``repro``-relative modules."""
        rel = "/".join(self.module_parts)
        return any(rel == tail for tail in tails)

    # -- AST helpers ---------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    def functions(self) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def dotted_name(self, node: ast.expr) -> Optional[tuple[str, ...]]:
        """``a.b.c`` as ``("a", "b", "c")``; ``None`` for non-names."""
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return tuple(reversed(parts))
        return None

    def qualified_name(self, node: ast.expr) -> Optional[str]:
        """Dotted name with the leading segment resolved through imports.

        ``from datetime import datetime as dt; dt.now`` resolves to
        ``datetime.datetime.now``.  Unresolvable heads (``self`` ...)
        are kept verbatim.
        """
        dotted = self.dotted_name(node)
        if dotted is None:
            return None
        head, *rest = dotted
        resolved = self.imports.get(head, head)
        return ".".join([resolved, *rest]) if rest else resolved

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=rule,
            message=message,
        )


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Local alias -> fully-qualified dotted name."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def body_statements(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> list[ast.stmt]:
    """Function body with a leading docstring statement stripped."""
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body


def walk_own(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Iterator[ast.AST]:
    """Walk a function body *excluding* nested function/class scopes."""

    def _walk(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            yield from _walk(child)

    for stmt in fn.body:
        yield from _walk(stmt)


def is_generator(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> bool:
    """Whether ``fn`` is a generator function (own scope contains yield)."""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in walk_own(fn))
