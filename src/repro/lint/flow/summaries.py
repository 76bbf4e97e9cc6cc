"""Interprocedural fence-discipline summaries (§III).

Per function, two facts computed to a fixpoint over the call graph:

* ``establishes_fence`` — the function (or something it provably
  calls) issues a ``fence()``/``is_fenced()`` check;
* ``escaping reads`` — remote-log read sites inside the function (a
  direct ``read_remote_log(...)`` call, or a call into a helper with
  escaping reads of its own) that are **not dominated** by a
  fence-establishing statement, and therefore become the obligation of
  every caller.

FENCE002 reports a function's escaping reads only where nothing in
the project calls the function — at the call-graph root, where no
caller is left to fence — with the helper chain down to the actual
read spelled out in the message.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.lint.flow.callgraph import CallGraph, CallSite
from repro.lint.flow.dataflow import FunctionCFG, build_cfg, node_expressions
from repro.lint.flow.project import FuncKey, FunctionInfo, ProjectContext

#: Calls that establish (or verify) the fence.
FENCE_CALLEES = frozenset({"fence", "is_fenced"})
#: The remote-read entry point the discipline protects.
READ_CALLEE = "read_remote_log"
#: The module that *defines* read_remote_log; its body is the
#: enforcement point, not a caller.
DEFINING_MODULES = ("storage/shared.py",)


class EscapingRead:
    """One read site a function exposes to its callers."""

    def __init__(self, node: ast.Call, chain: Tuple[str, ...]) -> None:
        #: The read call, or the helper call that leads to it.
        self.node = node
        #: Helper names from this function down to the read
        #: (empty for a direct ``read_remote_log`` call).
        self.chain = chain


class FenceSummaries:
    """Fixpoint results for every project function."""

    def __init__(self) -> None:
        self.establishes: Set[FuncKey] = set()
        self.escaping: Dict[FuncKey, List[EscapingRead]] = {}

    def establishes_fence(self, key: FuncKey) -> bool:
        return key in self.establishes

    def escaping_reads(self, key: FuncKey) -> List[EscapingRead]:
        return self.escaping.get(key, [])


def _is_fence_call(info: FunctionInfo, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = info.ctx.dotted_name(node.func)
    return dotted is not None and dotted[-1] in FENCE_CALLEES


def _is_read_call(info: FunctionInfo, node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = info.ctx.dotted_name(node.func)
    return dotted is not None and dotted[-1] == READ_CALLEE


def _fence_nodes(
    info: FunctionInfo,
    cfg: FunctionCFG,
    summaries: FenceSummaries,
    graph_sites: List[CallSite],
) -> Set[int]:
    """CFG nodes that establish the fence (directly or via a callee)."""
    nodes: Set[int] = set()
    for index, cfg_node in enumerate(cfg.nodes):
        if any(_is_fence_call(info, expr) for expr in node_expressions(cfg_node.stmt)):
            nodes.add(index)
    for site in graph_sites:
        if summaries.establishes_fence(site.callee):
            where = cfg.node_containing(site.node)
            if where is not None:
                nodes.add(where)
    return nodes


def compute_fence_summaries(
    project: ProjectContext, graph: CallGraph
) -> FenceSummaries:
    """Run both fixpoints over every function in the project."""
    summaries = FenceSummaries()
    keys = sorted(project.functions)

    # Fixpoint 1: fence establishment (monotone growth).
    for key in keys:
        info = project.functions[key]
        if any(
            _is_fence_call(info, node) for node in ast.walk(info.node)
        ):
            summaries.establishes.add(key)
    changed = True
    while changed:
        changed = False
        for key in keys:
            if key in summaries.establishes:
                continue
            if any(
                callee in summaries.establishes for callee in graph.callees(key)
            ):
                summaries.establishes.add(key)
                changed = True

    # Fixpoint 2: escaping (non-fence-dominated) read sites.
    changed = True
    while changed:
        changed = False
        for key in keys:
            info = project.functions[key]
            if _in_defining_module(info):
                continue
            escaping = _escaping_reads(info, project, graph, summaries)
            previous = summaries.escaping.get(key, [])
            if len(escaping) != len(previous) or any(
                a.node is not b.node for a, b in zip(escaping, previous)
            ):
                summaries.escaping[key] = escaping
                changed = True
    return summaries


def _in_defining_module(info: FunctionInfo) -> bool:
    return info.ctx.is_module(*DEFINING_MODULES)


def _escaping_reads(
    info: FunctionInfo,
    project: ProjectContext,
    graph: CallGraph,
    summaries: FenceSummaries,
) -> List[EscapingRead]:
    cfg = build_cfg(info.node)
    sites = graph.sites_from(info.key)
    fence_nodes = _fence_nodes(info, cfg, summaries, sites)

    candidates: List[Tuple[int, ast.Call, Tuple[str, ...]]] = []
    # Direct reads in this function's own scope.
    for index, cfg_node in enumerate(cfg.nodes):
        for expr in node_expressions(cfg_node.stmt):
            if _is_read_call(info, expr):
                assert isinstance(expr, ast.Call)
                candidates.append((index, expr, ()))
    # Helper calls that expose escaping reads of their own.
    for site in sites:
        exposed = summaries.escaping_reads(site.callee)
        if not exposed:
            continue
        where = cfg.node_containing(site.node)
        if where is None:
            continue
        callee_name = site.callee[1].rsplit(".", 1)[-1]
        chain = (callee_name, *exposed[0].chain)
        candidates.append((where, site.node, chain))

    escaping: List[EscapingRead] = []
    for index, node, chain in candidates:
        # Covered when a fence-establishing node dominates the read
        # (the read's own statement counts: "fence, then read" inside
        # one statement is textually ordered by evaluation).
        if cfg.dominated_by(index, fence_nodes):
            continue
        escaping.append(EscapingRead(node, chain))
    escaping.sort(key=lambda read: (read.node.lineno, read.node.col_offset))
    return escaping
