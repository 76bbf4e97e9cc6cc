"""One import direction through the experiment layer (ROADMAP 4c).

``fs → mds → workloads → campaign.{schedule,runner} → exec →
campaign.{shrink,cli} → harness``: every module-level import
among these points down the list, none hides inside a function to
dodge a cycle, and each package imports in a fresh interpreter (an
order-dependent cycle must fail here, not in a user's shell).
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
#: Bottom to top.  A module belongs to the first entry that prefixes it.
LAYERS = [
    ("repro.fs",),
    ("repro.mds",),
    ("repro.workloads",),
    ("repro.campaign.schedule", "repro.campaign.runner"),
    ("repro.exec",),
    ("repro.campaign.shrink", "repro.campaign.cli"),
    ("repro.harness",),
]
#: Where a function-local ``repro.*`` import is a finding.
TOP_LEVEL_ONLY = [
    "exec", "harness", "lint", "mds", "protocols", "workloads", "campaign/runner.py",
    "campaign/shrink.py",
]


def _layer(module):
    for index, prefixes in enumerate(LAYERS):
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return index
    return None


def _module_name(path):
    parts = ("repro", *path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree):
    """``(module, lineno, at_module_level)`` for every ``repro`` import
    that runs at import or call time (``if TYPE_CHECKING:`` is neither)."""

    def walk(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                continue
            if isinstance(child, ast.ImportFrom) and (child.module or "").startswith("repro"):
                # ``from repro.exec import clock`` names the submodule.
                yield from ((f"{child.module}.{a.name}", child.lineno, top) for a in child.names)
            elif isinstance(child, ast.Import):
                yield from ((a.name, child.lineno, top) for a in child.names if a.name.startswith("repro"))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, top and not is_def)

    return walk(tree, True)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, _module_name(path), ast.parse(path.read_text())


def test_no_function_local_repro_imports_in_the_experiment_layer():
    scoped = [SRC / name for name in TOP_LEVEL_ONLY]
    local = [
        f"{path.relative_to(SRC)}:{line} {module}"
        for path, _name, tree in _sources()
        if any(path == s or s in path.parents for s in scoped)
        for module, line, top in _imports(tree)
        if not top
    ]
    assert local == []


def test_only_the_harness_and_the_cli_import_the_harness():
    users = {
        str(path.relative_to(SRC))
        for path, name, tree in _sources()
        if not name.startswith("repro.harness") and name != "repro.cli"
        for module, _line, _top in _imports(tree)
        if module.startswith("repro.harness")
    }
    assert users == set()


def test_lint_imports_nothing_from_repro_outside_lint():
    """``repro lint`` stands alone: it reads the source it is given and
    never the live packages it checks."""
    outside = [
        f"{path.relative_to(SRC)}:{line} {module}"
        for path, name, tree in _sources()
        if name == "repro.lint" or name.startswith("repro.lint.")
        for module, line, _top in _imports(tree)
        if not (module == "repro.lint" or module.startswith("repro.lint."))
    ]
    assert outside == []


def test_module_level_imports_only_point_down_the_layer_list():
    upward = [
        f"{name} (layer {_layer(name)}) imports {module} (layer {_layer(module)})"
        for _path, name, tree in _sources()
        if _layer(name) is not None
        for module, _line, top in _imports(tree)
        if top and _layer(module) is not None and _layer(module) > _layer(name)
    ]
    assert upward == []


def _writes_now(node):
    """``x.now = ...``, ``x.now += ...``, unpacking into or deleting
    ``x.now``, and ``setattr(x, "now", ...)`` in either spelling."""
    if isinstance(node, ast.Attribute):
        return node.attr == "now" and isinstance(node.ctx, (ast.Store, ast.Del))
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) in ("setattr", "__setattr__")
        and any(isinstance(arg, ast.Constant) and arg.value == "now" for arg in node.args)
    )


def test_only_the_kernel_assigns_the_clock():
    """``Simulator.now`` is a plain attribute, so nothing refuses a
    write: the kernel is the one module that may spell one."""
    writers = {
        path.relative_to(SRC).as_posix()
        for path, _name, tree in _sources()
        if any(_writes_now(node) for node in ast.walk(tree))
    }
    assert writers == {"sim/kernel.py"}


@pytest.mark.parametrize(
    "module",
    ["exec", "campaign", "campaign.shrink", "workloads", "harness", "harness.conformance",
     "harness.sweeps", "mds.scenarios"],
)
def test_package_imports_in_a_fresh_interpreter(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.{module}"],
        env={"PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_exec_does_not_load_the_layers_above_it():
    code = (
        "import sys, repro.exec\n"
        "above = ('repro.harness', 'repro.campaign.shrink', 'repro.campaign.cli', 'repro.lint')\n"
        "print(sorted(m for m in sys.modules if m.startswith(above)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.strip() == "[]", done.stdout + done.stderr
