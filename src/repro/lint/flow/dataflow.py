"""Statement-level control flow graphs with dominance.

FENCE002 needs exactly one graph query: **dominance** — it accepts a
remote-log read only when some statement that establishes the fence
dominates it (runs on *every* path from function entry).

The CFG is statement-granular: one node per simple statement, one node
per compound-statement *header* (its test/iter expressions), bodies
recursed.  ``try`` is approximated by letting handlers start from the
header — conservative for dominance.  Nested function/class scopes
are opaque (they build their own CFGs).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Compound statements whose bodies become separate CFG nodes.
_COMPOUND_BODIES = ("body", "orelse", "finalbody")


class CFGNode:
    """One statement (or compound-statement header) in the graph."""

    def __init__(self, index: int, stmt: ast.stmt) -> None:
        self.index = index
        self.stmt = stmt
        self.succs: List[int] = []


def node_expressions(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The AST nodes belonging to one CFG node.

    For simple statements: the whole statement.  For compound
    statements: only the header (test / iter / items / exception
    types) — body statements are their own nodes.  Nested
    function/class scopes and lambdas are excluded throughout.
    """

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            yield from walk(child)

    if isinstance(stmt, (ast.If, ast.While)):
        yield from walk(stmt.test)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield from walk(stmt.target)
        yield from walk(stmt.iter)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield from walk(item)
    elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return
    else:
        yield from walk(stmt)


class FunctionCFG:
    """CFG of one function body, with lazily computed dominators."""

    def __init__(self, fn: FuncNode) -> None:
        self.fn = fn
        self.nodes: List[CFGNode] = []
        self._dominators: Optional[List[Set[int]]] = None
        builder = _Builder(self)
        builder.build(fn.body)

    # -- construction hooks --------------------------------------------------

    def add_node(self, stmt: ast.stmt) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt)
        self.nodes.append(node)
        return node

    # -- lookups -------------------------------------------------------------

    def node_containing(self, target: ast.AST) -> Optional[int]:
        """CFG node whose own expressions contain ``target``."""
        for node in self.nodes:
            for expr in node_expressions(node.stmt):
                if expr is target:
                    return node.index
        return None

    # -- dominance -----------------------------------------------------------

    def dominators(self) -> List[Set[int]]:
        """``dominators()[n]`` — the node indices dominating node n.

        Iterative set intersection over predecessors; unreachable
        nodes keep the full set (vacuously dominated).
        """
        if self._dominators is not None:
            return self._dominators
        count = len(self.nodes)
        if count == 0:
            self._dominators = []
            return self._dominators
        preds: List[List[int]] = [[] for _ in range(count)]
        for node in self.nodes:
            for succ in node.succs:
                preds[succ].append(node.index)
        everything = set(range(count))
        dom: List[Set[int]] = [set(everything) for _ in range(count)]
        dom[0] = {0}
        changed = True
        while changed:
            changed = False
            for index in range(1, count):
                incoming = [dom[p] for p in preds[index]]
                new = set.intersection(*incoming) if incoming else set(everything)
                new = new | {index}
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        self._dominators = dom
        return dom

    def dominated_by(self, node: int, candidates: Set[int]) -> bool:
        """Whether some candidate dominates ``node`` (self included)."""
        if node in candidates:
            return True
        dom = self.dominators()
        return bool(dom[node] & candidates) if node < len(dom) else False


class _Builder:
    """Wires CFG nodes; tracks the loop stack for break/continue."""

    def __init__(self, cfg: FunctionCFG) -> None:
        self.cfg = cfg
        self._loops: List[Tuple[int, List[int]]] = []

    def build(self, body: List[ast.stmt]) -> None:
        # A synthetic entry makes "function entry" a real node even
        # when the first statement is a loop header.
        entry = self.cfg.add_node(ast.Pass())
        self._sequence(body, [entry.index])

    def _link(self, frontier: List[int], target: int) -> None:
        for index in frontier:
            succs = self.cfg.nodes[index].succs
            if target not in succs:
                succs.append(target)

    def _sequence(self, body: List[ast.stmt], frontier: List[int]) -> List[int]:
        for stmt in body:
            frontier = self._statement(stmt, frontier)
        return frontier

    def _statement(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        node = self.cfg.add_node(stmt)
        self._link(frontier, node.index)
        here = [node.index]
        if isinstance(stmt, ast.If):
            then_exits = self._sequence(stmt.body, here)
            else_exits = self._sequence(stmt.orelse, here) if stmt.orelse else here
            return then_exits + else_exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loops.append((node.index, []))
            body_exits = self._sequence(stmt.body, here)
            self._link(body_exits, node.index)
            _, breaks = self._loops.pop()
            exits = list(here) + breaks
            if stmt.orelse:
                exits = self._sequence(stmt.orelse, here) + breaks
            return exits
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._sequence(stmt.body, here)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            body_exits = self._sequence(stmt.body, here)
            if stmt.orelse:
                body_exits = self._sequence(stmt.orelse, body_exits)
            handler_exits: List[int] = []
            for handler in stmt.handlers:
                handler_exits += self._sequence(handler.body, here)
            exits = body_exits + handler_exits
            if stmt.finalbody:
                exits = self._sequence(stmt.finalbody, exits)
            return exits
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append(node.index)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._link(here, self._loops[-1][0])
            return []
        return here


_CFG_CACHE: Dict[int, FunctionCFG] = {}


def build_cfg(fn: FuncNode) -> FunctionCFG:
    """CFG for ``fn``, cached per AST node within one process."""
    cached = _CFG_CACHE.get(id(fn))
    if cached is None or cached.fn is not fn:
        cached = FunctionCFG(fn)
        _CFG_CACHE[id(fn)] = cached
    return cached
