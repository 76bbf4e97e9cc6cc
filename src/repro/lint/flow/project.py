"""The project-wide analysis context.

A :class:`ProjectContext` indexes every linted file's AST three ways —
by dotted module name, by ``(module, class)`` and by ``(module,
qualname)`` — so the call graph, the fence summaries and the record
extractor can resolve names across file boundaries.  Module names are
derived from each file's *lint path* (the ``# repro: path`` fixture
directive included), which keeps test fixtures addressable exactly
like the production module they impersonate.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.context import FileContext

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``(module, qualname)`` — the project-unique key of one function.
FuncKey = Tuple[str, str]


class FunctionInfo:
    """One function or method, located within the project."""

    def __init__(
        self, module: str, qualname: str, node: FuncNode, ctx: FileContext
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.node = node
        self.ctx = ctx

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qualname)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def class_name(self) -> Optional[str]:
        """Name of the directly enclosing class, or ``None``."""
        parts = self.qualname.split(".")
        return parts[-2] if len(parts) >= 2 else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.module}:{self.qualname})"


class ClassInfo:
    """One class definition, with its direct methods and base names."""

    def __init__(
        self,
        module: str,
        name: str,
        node: ast.ClassDef,
        ctx: FileContext,
        bases: Tuple[str, ...],
    ) -> None:
        self.module = module
        self.name = name
        self.node = node
        self.ctx = ctx
        #: Base classes as import-resolved dotted names (``a.b.C``) or
        #: bare local names.
        self.bases = bases
        self.methods: Dict[str, FunctionInfo] = {}

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.module}:{self.name})"


def module_name_of(ctx: FileContext) -> Optional[str]:
    """Dotted module name for a file under the ``repro`` package.

    ``src/repro/core/recovery.py`` -> ``repro.core.recovery``;
    package ``__init__`` files name the package itself.  Files outside
    the package (conftest, scripts) have no module name.
    """
    parts = ctx.module_parts
    if not parts or ctx.in_tests:
        return None
    names = list(parts)
    if not names[-1].endswith(".py"):
        return None
    names[-1] = names[-1][: -len(".py")]
    if names[-1] == "__init__":
        names.pop()
    return ".".join(["repro", *names])


class ProjectContext:
    """Every linted file, indexed for cross-file name resolution."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        #: display path -> context (the key findings carry).
        self.files: Dict[str, FileContext] = {}
        #: dotted module name -> context (src files only).
        self.modules: Dict[str, FileContext] = {}
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        for ctx in contexts:
            self.files[ctx.display_path] = ctx
            module = module_name_of(ctx)
            if module is None:
                continue
            self.modules[module] = ctx
            self._index(module, ctx)

    # -- construction --------------------------------------------------------

    def _index(self, module: str, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(module, self._qualname(ctx, node), node, ctx)
                self.functions[info.key] = info
            elif isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    resolved = ctx.qualified_name(base)
                    if resolved is not None:
                        bases.append(resolved)
                cls = ClassInfo(module, node.name, node, ctx, tuple(bases))
                self.classes[cls.key] = cls
        # Attach direct methods to their classes.
        for info in self.functions.values():
            if info.module != module:
                continue
            cls_name = info.class_name
            if cls_name is None:
                continue
            owner = self.classes.get((module, cls_name))
            if owner is not None and "." not in info.qualname.removeprefix(
                f"{cls_name}."
            ):
                owner.methods.setdefault(info.name, info)

    @staticmethod
    def _qualname(ctx: FileContext, node: FuncNode) -> str:
        parts: List[str] = [node.name]
        current: Optional[ast.AST] = ctx.parent(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(current.name)
            current = ctx.parent(current)
        return ".".join(reversed(parts))

    # -- resolution ----------------------------------------------------------

    def function(self, module: str, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get((module, qualname))

    def class_named(self, module: str, name: str) -> Optional[ClassInfo]:
        return self.classes.get((module, name))

    def resolve_class_ref(
        self, module: str, dotted: str
    ) -> Optional[ClassInfo]:
        """A class reference (``C`` or ``pkg.mod.C``) seen in ``module``."""
        if "." not in dotted:
            return self.class_named(module, dotted)
        owner, _, name = dotted.rpartition(".")
        return self.class_named(owner, name)

    def static_mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Left-to-right depth-first base linearisation within the project.

        An approximation of C3 that is exact for the single-inheritance
        chains the protocol engines use; bases whose definition is not
        in the project simply end the walk down that branch.
        """
        seen: Dict[Tuple[str, str], None] = {}
        order: List[ClassInfo] = []

        def visit(info: ClassInfo) -> None:
            if info.key in seen:
                return
            seen[info.key] = None
            order.append(info)
            for base in info.bases:
                resolved = self.resolve_class_ref(info.module, base)
                if resolved is not None:
                    visit(resolved)

        visit(cls)
        return order
