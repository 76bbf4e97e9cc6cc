"""FENCE — protocol-discipline rules.

§III of the paper: the 1PC coordinator cannot distinguish a crashed
worker from a partitioned one, so before reading the worker's log
partition it must *fence* the worker (STONITH / switch fencing /
SCSI-3 reservation).  Reading an unfenced node's log recreates the
split-brain hazard — cf. Gray & Lamport, "Consensus on Transaction
Commit", where commit safety likewise hinges on who may read whose
log.  These rules make the discipline structural.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.project import ProjectContext
from repro.lint.flow.summaries import READ_CALLEE, compute_fence_summaries
from repro.lint.registry import ProjectRule, Rule, register

#: The only non-test module allowed to spell ``require_fenced=False``
#: (it is the recovery implementation the escape hatch exists for).
_RECOVERY_MODULES = ("core/recovery.py",)


def _read_remote_log_calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.dotted_name(node.func)
        if dotted is not None and dotted[-1] == READ_CALLEE:
            yield node


@register
class UnfencedEscapeHatchRule(Rule):
    id = "FENCE001"
    summary = "require_fenced=False is confined to core/recovery.py and tests"
    rationale = (
        "The unfenced read path exists only to demonstrate the "
        "split-brain hazard in tests; production protocol code must "
        "never opt out of the fencing check."
    )
    good_example = "records = read_remote_log(worker, txn_id)"
    bad_example = "records = read_remote_log(worker, txn_id, require_fenced=False)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_tests or ctx.is_module(*_RECOVERY_MODULES):
            return
        for call in _read_remote_log_calls(ctx):
            for keyword in call.keywords:
                if (
                    keyword.arg == "require_fenced"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                ):
                    yield ctx.finding(
                        call,
                        self.id,
                        "read_remote_log(..., require_fenced=False) outside "
                        "core/recovery.py and tests recreates the split-brain "
                        "hazard (§III)",
                    )


@register
class UnfencedReadRule(ProjectRule):
    id = "FENCE002"
    summary = "remote-log reads, direct or through helpers, must be fence-dominated"
    rationale = (
        "A coordinator may mount another MDS's log partition only "
        "after fencing it.  A read_remote_log call, or a call into a "
        "helper that reaches one, is covered when a fence()/is_fenced() "
        "call — or a call to a function that makes one — dominates it; "
        "an uncovered read becomes every caller's obligation and is "
        "reported once, in the function nothing calls, where no caller "
        "is left to fence."
    )
    good_example = (
        "if not cluster.storage.fencing.is_fenced(worker):\n"
        "    yield from cluster.fencing_driver.fence(worker)\n"
        "records = yield from pull_worker_records(worker, txn_id)"
    )
    bad_example = (
        "# pull_worker_records() hides a read_remote_log(...):\n"
        "records = yield from pull_worker_records(worker, txn_id)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = build_call_graph(project)
        summaries = compute_fence_summaries(project, graph)
        for key in sorted(summaries.escaping):
            if graph.callers(key):
                continue  # the obligation escapes to a caller
            info = project.functions[key]
            for read in summaries.escaping_reads(key):
                via = "' -> '".join(f"{name}()" for name in read.chain)
                what = (
                    f"call in {info.name!r} reaches read_remote_log(...) via helper '{via}'"
                    if read.chain
                    else f"read_remote_log(...) in {info.name!r}"
                )
                yield info.ctx.finding(
                    read.node,
                    self.id,
                    f"{what} without a dominating fence()/is_fenced() call "
                    "(§III discipline: fence before reading a remote log)",
                )
