"""The cell skeleton: one driver (the only submit loop of the
experiment layer), one wait for the answers (no step loop anywhere,
the examples included), both failure exits of ``drain``, and the
abort-burst cell's realised refusal rate."""

import ast
from pathlib import Path

import pytest

import repro
from repro.exec import RunSpec, execute_spec
from repro.mds.scenarios import distributed_create_cluster
from repro.workloads.cell import drain

SRC = Path(repro.__file__).resolve().parent
EXAMPLES = SRC.parents[1] / "examples"


def _steps(loop):
    """A ``while`` whose body calls ``.step()``."""
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "step"
        for stmt in loop.body
        for node in ast.walk(stmt)
    )


def test_the_drain_loop_is_spelled_once():
    trees = {
        str(path.relative_to(SRC)): ast.parse(path.read_text()) for path in SRC.rglob("*.py")
    }
    examples = {
        f"examples/{path.name}": ast.parse(path.read_text()) for path in EXAMPLES.glob("*.py")
    }
    assert examples
    # Stepping the kernel until the trace or the outcomes show something
    # is spelled nowhere: waiting for answers is ``run_until_answered``
    # (``record_outcome`` stops the kernel's own loop), acting on a
    # trace record is a ``FaultPlan`` with ``trigger=``.
    stepped = sorted(
        name
        for name, tree in {**trees, **examples}.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.While) and _steps(node)
    )
    assert stepped == []
    # The one spelling is ``Cluster.run_until_answered``, and the
    # skeleton is its one caller: the fault cells (the conformance
    # battery among them) settle for a fixed budget instead.
    callers = sorted(
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "run_until_answered"
    )
    assert callers == ["workloads/cell.py"]


def _submit_lines(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "submit"
    ]


def test_drive_is_the_only_submit_loop():
    # Every workload and study puts its operations to the cluster
    # through ``drive``: no other ``.submit(`` in either layer.
    sites = sorted(
        f"{path.relative_to(SRC)}:{line}"
        for layer in ("workloads", "harness")
        for path in (SRC / layer).rglob("*.py")
        for line in _submit_lines(ast.parse(path.read_text()))
    )
    cell = ast.parse((SRC / "workloads" / "cell.py").read_text())
    # The last definition: the ones before it are its typing overloads.
    drive = [f for f in cell.body if isinstance(f, ast.FunctionDef) and f.name == "drive"][-1]
    assert len(sites) == 1
    assert sites == [f"workloads/cell.py:{line}" for line in _submit_lines(drive)]


def _one_create():
    """The fake workload: one create, of which two answers are awaited."""
    cluster, client = distributed_create_cluster("1PC", trace="off")
    client.submit(client.plan_create("/dir1/f0"))
    return cluster


def test_drain_names_the_cell_when_the_schedule_runs_dry():
    cluster = _one_create()
    with pytest.raises(RuntimeError, match=r"fake cell did not finish .*\(1/2 answered\)"):
        drain(cluster, 2, "fake cell")
    assert cluster.sim.peek() == float("inf")


def test_drain_stops_at_its_budget_while_a_timer_keeps_the_schedule_alive():
    cluster = _one_create()

    def tick(_event=None):
        cluster.sim.after(1e-2, tick)

    tick()
    with pytest.raises(RuntimeError, match=r"within 5 virtual seconds \(1/2 answered\)"):
        drain(cluster, 2, "fake cell", budget=5.0)
    assert 5.0 - 1e-2 <= cluster.sim.now <= 5.0


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.25, 0.3, 0.34, 0.4, 0.45, 0.6, 0.75])
def test_abort_burst_refuses_the_requested_fraction(rate):
    n = 40
    cell = execute_spec(RunSpec(kind="abort_burst", protocol="PrN", n=n, abort_rate=rate))
    assert cell.committed + cell.aborted == n
    assert abs(cell.aborted / n - rate) <= 1 / n + 1e-12
