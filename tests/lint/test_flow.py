"""The whole-program layer: call graph, CFG facts, and FENCE002.

The paired fence_flow fixtures split the fence and the read across
helpers: FENCE002 follows the call graph, so the unfenced read hidden
in a helper is reported at the caller that escapes it, and a fence
factored into a helper discharges the read without a pragma.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint import iter_python_files, run_lint
from repro.lint.context import FileContext
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.dataflow import build_cfg
from repro.lint.flow.project import ProjectContext
from repro.lint.flow.summaries import READ_CALLEE, compute_fence_summaries
from repro.lint.registry import get_rule, select_rules

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _context(source: str, path: str = "src/repro/core/snippet.py") -> FileContext:
    text = textwrap.dedent(source)
    return FileContext(Path(path), text, ast.parse(text))


def _project(*sources: str) -> ProjectContext:
    return ProjectContext(
        [
            _context(source, f"src/repro/core/snippet{index}.py")
            for index, source in enumerate(sources)
        ]
    )


# -- call graph ---------------------------------------------------------------


def test_call_graph_resolves_module_self_and_super_calls():
    project = _project(
        """
        def helper():
            return 1

        class Base:
            def step(self):
                return helper()

        class Derived(Base):
            def step(self):
                return super().step()

            def run(self):
                return self.step()
        """
    )
    graph = build_call_graph(project)
    module = "repro.core.snippet0"
    callees = {
        caller[1]: {callee[1] for callee in graph.callees(caller)}
        for caller in project.functions
    }
    assert callees["Base.step"] == {"helper"}
    assert callees["Derived.step"] == {"Base.step"}
    assert callees["Derived.run"] == {"Derived.step"}
    assert all(key[0] == module for key in project.functions)


# -- CFG ----------------------------------------------------------------------


def test_cfg_dominance_and_yield_paths():
    source = textwrap.dedent(
        """
        def proc(sim, flag):
            a = 1
            if flag:
                yield sim.timeout(1.0)
            b = a + 1
            return b
        """
    )
    fn = ast.parse(source).body[0]
    cfg = build_cfg(fn)
    nodes = {type(node.stmt).__name__: node.index for node in cfg.nodes}
    # `a = 1` dominates `b = a + 1`; the yield (inside the if) does not.
    assign_nodes = [
        node.index for node in cfg.nodes if isinstance(node.stmt, ast.Assign)
    ]
    first, last = min(assign_nodes), max(assign_nodes)
    assert cfg.dominated_by(last, {first})
    yield_node = nodes["Expr"]
    assert not cfg.dominated_by(last, {yield_node})


# -- fence summaries ----------------------------------------------------------


def test_fence_summaries_propagate_through_helpers():
    project = _project(
        """
        def _ensure_fenced(cluster, worker):
            yield from cluster.fencing_driver.fence(worker)

        def _pull(cluster, worker):
            records = yield from cluster.storage.read_remote_log(worker)
            return records

        def covered(cluster, worker):
            yield from _ensure_fenced(cluster, worker)
            yield from _pull(cluster, worker)

        def exposed(cluster, worker):
            yield from _pull(cluster, worker)
        """
    )
    graph = build_call_graph(project)
    summaries = compute_fence_summaries(project, graph)
    module = "repro.core.snippet0"
    assert (module, "_ensure_fenced") in summaries.establishes
    escaping = {key[1] for key in summaries.escaping}
    assert "_pull" in escaping  # the direct read, an obligation of its callers
    assert "exposed" in escaping  # the root FENCE002 reports
    assert "covered" not in escaping


def test_fence_summaries_over_src_see_the_recovery_probe():
    # FENCE002's traffic on the real tree: the recovery probe is the
    # fenced read of §III.  If the analysis ever finds nothing to look
    # at, this fails instead of the rule going quietly empty.
    project = ProjectContext(
        [
            _context(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))
            for path in iter_python_files([ROOT / "src"])
        ]
    )
    summaries = compute_fence_summaries(project, build_call_graph(project))
    probe = project.function("repro.core.recovery", "probe_worker_log")
    assert probe is not None
    calls = [node for node in ast.walk(probe.node) if isinstance(node, ast.Call)]
    assert any((probe.ctx.dotted_name(c.func) or ("",))[-1] == READ_CALLEE for c in calls)
    assert summaries.establishes_fence(probe.key)
    assert {key: reads for key, reads in summaries.escaping.items() if reads} == {}


# -- FENCE002 end-to-end ------------------------------------------------------


def test_fence002_catches_read_hidden_in_helper():
    report = run_lint(
        [FIXTURES / "fence_flow_bad.py"], rules=select_rules(["FENCE"])
    )
    assert [f.rule for f in report.findings] == ["FENCE002"]
    finding = report.findings[0]
    assert "unfenced_sweep" in finding.message
    assert "_pull_records()" in finding.message  # helper chain context


def test_fence002_reports_each_escape_once_at_its_root():
    project = _project(
        """
        def _read(cluster, worker):
            return (yield from cluster.storage.read_remote_log(worker))

        def _middle(cluster, worker):
            return (yield from _read(cluster, worker))

        def fenced(cluster, worker):
            yield from cluster.fencing_driver.fence(worker)
            yield from _middle(cluster, worker)

        def unfenced(cluster, worker):
            yield from _middle(cluster, worker)

        def retrying(cluster, worker):
            records = yield from cluster.storage.read_remote_log(worker)
            if not records:
                yield from retrying(cluster, worker)
        """
    )
    findings = sorted(get_rule("FENCE002").check_project(project))
    assert [(f.line, f.message.split(" without ")[0]) for f in findings] == [
        (13, "call in 'unfenced' reaches read_remote_log(...) via helper "
             "'_middle()' -> '_read()'"),
        (16, "read_remote_log(...) in 'retrying'"),
    ]


def test_fence_flow_good_fixture_is_clean():
    # A fence factored into a helper covers both the read hidden in
    # _pull_records() (fenced_sweep) and direct_probe's own read.
    report = run_lint(
        [FIXTURES / "fence_flow_good.py"], rules=select_rules(["FENCE"])
    )
    assert report.findings == []


def test_fence002_reports_an_unfenced_read_in_a_session_step():
    # A step is handed to ``wait``, never called: it is a root of the
    # call graph, so its unfenced read is reported in the step itself.
    report = run_lint([FIXTURES / "fence_step_bad.py"], rules=select_rules(["FENCE"]))
    assert [f.rule for f in report.findings] == ["FENCE002"]
    assert "read_remote_log(...) in 'probe'" in report.findings[0].message
