"""DET — determinism rules.

The reproduction's headline claim (PR 1: bit-identical parallel and
serial sweeps; the committed CI baselines) only holds if nothing in
``src/repro`` consults the host: no wall clock, no process-global
``random`` state, and no dependence on hash-randomised ``set``
iteration order in the modules that decide event ordering.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.lint.context import (
    EVENT_ORDERING_AREAS,
    FileContext,
    walk_own,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Host-clock reads.  ``sim.now`` is the only legitimate time source
#: inside the simulation; run provenance (wall seconds, timestamps)
#: reads the host clock through :data:`SANCTIONED_CLOCK` alone.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


#: The one module allowed to read the host clock.
SANCTIONED_CLOCK = "exec/clock.py"


@register
class WallClockRule(Rule):
    id = "DET001"
    summary = "no wall-clock reads inside src/repro (use sim.now)"
    rationale = (
        "Results must be a pure function of (spec, seed); a host-clock "
        "read anywhere in the simulation or its harnesses breaks the "
        "bit-identical replay the goldens depend on.  Volatile run "
        "provenance goes through repro.exec.clock, the one exempt module."
    )
    good_example = "started_at = sim.now"
    bad_example = "started_at = time.time()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src or ctx.is_module(SANCTIONED_CLOCK):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified in WALL_CLOCK_CALLS:
                yield ctx.finding(
                    node,
                    self.id,
                    f"wall-clock call {qualified}() in simulation code; "
                    "use sim.now (or repro.exec.clock for run provenance)",
                )


@register
class GlobalRandomRule(Rule):
    id = "DET002"
    summary = "no process-global random state (use the seeded RngRegistry)"
    rationale = (
        "Module-level random.* functions share interpreter-global state "
        "seeded from OS entropy; every stochastic choice must come from "
        "the run's seeded RngRegistry stream instead."
    )
    good_example = 'delay = rngs.stream("net").uniform(0.1, 0.2)'
    bad_example = "delay = random.uniform(0.1, 0.2)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified is None or not qualified.startswith("random."):
                continue
            if qualified == "random.Random" and node.args:
                continue  # explicitly seeded instance: the sanctioned form
            yield ctx.finding(
                node,
                self.id,
                f"{qualified}() uses process-global or entropy-seeded "
                "randomness; draw from the seeded RngRegistry",
            )


@register
class SetIterationRule(Rule):
    id = "DET003"
    summary = (
        "no iteration over unordered set/.keys() views in event-ordering "
        "modules (sim/, net/, locks/, core/) unless wrapped in sorted()"
    )
    rationale = (
        "Iteration order of a set depends on PYTHONHASHSEED; in the "
        "modules that decide scheduling and dispatch order it silently "
        "becomes part of the event schedule and breaks cross-process "
        "determinism."
    )
    good_example = "for worker in sorted(pending):"
    bad_example = "for worker in pending:  # pending is a set"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.in_src and ctx.area in EVENT_ORDERING_AREAS):
            return
        scopes: list[Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]] = [
            ctx.tree,
            *ctx.functions(),
        ]
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    def _check_scope(
        self,
        ctx: FileContext,
        scope: Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> Iterator[Finding]:
        nodes = (
            list(ast.walk(scope))
            if isinstance(scope, ast.Module)
            else list(walk_own(scope))
        )
        if isinstance(scope, ast.Module):
            # Module scope: only statements outside any function.
            nodes = [
                node
                for node in nodes
                if ctx.enclosing_function(node) is None
                and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        set_names = _set_typed_names(ctx, nodes)

        def unordered(expr: ast.expr) -> Optional[str]:
            return _unordered_reason(ctx, expr, set_names)

        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                reason = unordered(node.iter)
                if reason is not None:
                    yield ctx.finding(
                        node.iter,
                        self.id,
                        f"for-loop iterates {reason}; wrap in sorted()",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    reason = unordered(comp.iter)
                    if reason is not None:
                        yield ctx.finding(
                            comp.iter,
                            self.id,
                            f"comprehension iterates {reason}; wrap in sorted()",
                        )
            elif isinstance(node, ast.Call):
                name = ctx.qualified_name(node.func)
                if name in ("list", "tuple") and len(node.args) == 1:
                    reason = unordered(node.args[0])
                    if reason is not None:
                        yield ctx.finding(
                            node,
                            self.id,
                            f"{name}() materialises {reason} in hash order; "
                            "use sorted()",
                        )


def _set_typed_names(ctx: FileContext, nodes: list[ast.AST]) -> set[str]:
    """Names bound to set-valued expressions or ``set[...]`` annotations."""
    names: set[str] = set()
    # Two passes so `a = set(); b = a | other` marks b as well.
    for _ in range(2):
        for node in nodes:
            if isinstance(node, ast.Assign):
                if _is_set_expr(ctx, node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(ctx, node.value, names)
                ):
                    names.add(node.target.id)
    return names


def _is_set_annotation(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    return isinstance(target, ast.Name) and target.id in (
        "set",
        "frozenset",
        "Set",
        "FrozenSet",
        "AbstractSet",
        "MutableSet",
    )


def _is_set_expr(ctx: FileContext, expr: ast.expr, set_names: set[str]) -> bool:
    """Whether ``expr`` statically evaluates to a set-like value."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.Call):
        name = ctx.qualified_name(expr.func)
        if name in ("set", "frozenset"):
            return True
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
            and not expr.args
        ):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(ctx, expr.left, set_names) or _is_set_expr(
            ctx, expr.right, set_names
        )
    return False


def _unordered_reason(
    ctx: FileContext, expr: ast.expr, set_names: set[str]
) -> Optional[str]:
    """A human-readable description of why ``expr`` is hash-ordered."""
    if isinstance(expr, ast.Call):
        name = ctx.qualified_name(expr.func)
        if name in ("sorted",):
            return None
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "keys"
            and not expr.args
        ):
            return "a .keys() view"
    if not _is_set_expr(ctx, expr, set_names):
        return None
    if isinstance(expr, ast.Name):
        return f"the unordered set {expr.id!r}"
    return "an unordered set expression"
