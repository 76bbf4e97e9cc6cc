"""Static call graph over a :class:`~repro.lint.flow.project.ProjectContext`.

Resolution is deliberately conservative (a linter must not invent
edges): an edge is added only when the callee provably is a project
function —

* a **bare name** resolves to a function nested in the caller, then a
  module-level function of the same module, then an imported project
  function (through the file's import table);
* ``self.m(...)`` resolves through the static MRO of the caller's
  enclosing class (first definition wins — the same rule the runtime
  applies, minus dynamic monkey-patching);
* ``super().m(...)`` resolves to the next definition of ``m`` after
  the caller's class in that MRO;
* anything else (``obj.m(...)`` on an arbitrary receiver) adds no
  edge.

Unresolved receivers make the downstream analyses *under*-approximate:
for FENCE002 a function reached only through dynamic dispatch has no
resolved caller, so its unfenced reads are reported at that function
itself — the same trade every practical whole-program linter makes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.context import walk_own
from repro.lint.flow.project import FuncKey, FunctionInfo, ProjectContext


class CallSite:
    """One resolved call edge, anchored at its AST call node."""

    def __init__(self, caller: FuncKey, callee: FuncKey, node: ast.Call) -> None:
        self.caller = caller
        self.callee = callee
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallSite({self.caller} -> {self.callee})"


class CallGraph:
    """Resolved call edges, indexed by caller and by callee."""

    def __init__(self) -> None:
        self._edges: Dict[FuncKey, List[CallSite]] = {}
        self._callers: Dict[FuncKey, Set[FuncKey]] = {}

    def add(self, site: CallSite) -> None:
        self._edges.setdefault(site.caller, []).append(site)
        self._callers.setdefault(site.callee, set()).add(site.caller)

    def sites_from(self, caller: FuncKey) -> List[CallSite]:
        return self._edges.get(caller, [])

    def callees(self, caller: FuncKey) -> List[FuncKey]:
        return [site.callee for site in self.sites_from(caller)]

    def callers(self, callee: FuncKey) -> Set[FuncKey]:
        return self._callers.get(callee, set())


def _is_super_call(node: ast.expr) -> bool:
    """``super().m`` — an Attribute on a bare ``super()`` call."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
    )


def resolve_bare_call(
    project: ProjectContext, caller: FunctionInfo, name: str
) -> Optional[FunctionInfo]:
    """A bare-name callee seen inside ``caller``."""
    # Nested function of the caller (or of an enclosing function).
    scope = caller.qualname
    while scope:
        nested = project.function(caller.module, f"{scope}.{name}")
        if nested is not None:
            return nested
        scope, _, _ = scope.rpartition(".")
    # Module-level function of the same module.
    local = project.function(caller.module, name)
    if local is not None:
        return local
    # Imported project function.
    imported = caller.ctx.imports.get(name)
    if imported is not None and "." in imported:
        module, _, func = imported.rpartition(".")
        return project.function(module, func)
    return None


def resolve_self_call(
    project: ProjectContext, caller: FunctionInfo, method: str
) -> Optional[FunctionInfo]:
    """``self.method`` resolved through the caller's static MRO."""
    cls_name = caller.class_name
    if cls_name is None:
        return None
    cls = project.class_named(caller.module, cls_name)
    if cls is None:
        return None
    for ancestor in project.static_mro(cls):
        found = ancestor.methods.get(method)
        if found is not None:
            return found
    return None


def resolve_super_call(
    project: ProjectContext, caller: FunctionInfo, method: str
) -> Optional[FunctionInfo]:
    """``super().method`` — the next definition after the caller's class."""
    cls_name = caller.class_name
    if cls_name is None:
        return None
    cls = project.class_named(caller.module, cls_name)
    if cls is None:
        return None
    passed_self = False
    for ancestor in project.static_mro(cls):
        if not passed_self:
            passed_self = ancestor.key == cls.key
            continue
        found = ancestor.methods.get(method)
        if found is not None:
            return found
    return None


def resolve_call(
    project: ProjectContext, caller: FunctionInfo, node: ast.Call
) -> Optional[FunctionInfo]:
    """Resolve one call node to its project callee when possible."""
    func = node.func
    if isinstance(func, ast.Name):
        return resolve_bare_call(project, caller, func.id)
    if _is_super_call(func):
        assert isinstance(func, ast.Attribute)
        return resolve_super_call(project, caller, func.attr)
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return resolve_self_call(project, caller, func.attr)
    if isinstance(func, ast.Attribute):
        dotted = caller.ctx.qualified_name(func)
        if dotted is not None and "." in dotted:
            module, _, name = dotted.rpartition(".")
            return project.function(module, name)
    return None


def own_calls(info: FunctionInfo) -> Iterator[ast.Call]:
    """Call nodes in the function's own scope (nested defs excluded —
    they are their own graph nodes)."""
    for node in walk_own(info.node):
        if isinstance(node, ast.Call):
            yield node


def build_call_graph(project: ProjectContext) -> CallGraph:
    """Resolve every call in every project function.

    A recursive call adds no edge: it reaches nothing its caller does
    not reach already.
    """
    graph = CallGraph()
    for key in sorted(project.functions):
        info = project.functions[key]
        for call in own_calls(info):
            callee = resolve_call(project, info, call)
            if callee is not None and callee.key != key:
                graph.add(CallSite(key, callee.key, call))
    return graph
