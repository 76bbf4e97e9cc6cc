"""The analyzer's entry point: collect files, parse them, run every rule."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.flow.project import ProjectContext
from repro.lint.registry import Rule, all_rules

#: Rule id reported for files the parser rejects.
SYNTAX_RULE = "SYN001"

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS or any(
                    part.endswith(".egg-info") for part in candidate.parts
                ):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


def _parse_file(file: Path, root: Path) -> Union[FileContext, Finding]:
    """Parse one file into a context, or a SYN001 finding."""
    source = file.read_text(encoding="utf-8")
    try:
        display = file.resolve().relative_to(root.resolve())
    except ValueError:
        display = file
    try:
        tree = ast.parse(source, filename=str(file))
    except SyntaxError as exc:
        return Finding(
            path=display.as_posix(),
            line=exc.lineno or 0,
            col=(exc.offset or 0),
            rule=SYNTAX_RULE,
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(display, source, tree)


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """Gate condition: no findings."""
        return not self.findings


def run_lint(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Union[str, Path]] = None,
) -> LintReport:
    """Lint ``paths`` with ``rules`` (default: every registered rule).

    Every file that parses joins one
    :class:`~repro.lint.flow.project.ProjectContext`, and each rule is
    one pass over it: a per-file rule checks each file in turn, a
    :class:`~repro.lint.registry.ProjectRule` sees them all at once.
    """
    base = Path(root) if root is not None else Path(os.getcwd())
    files = iter_python_files(paths)
    findings: list[Finding] = []
    contexts: list[FileContext] = []
    for file in files:
        parsed = _parse_file(file, base)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            contexts.append(parsed)
    project = ProjectContext(contexts)
    for rule in rules if rules is not None else all_rules():
        findings.extend(rule.check_project(project))
    return LintReport(findings=sorted(findings), files_checked=len(files))
