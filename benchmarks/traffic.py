"""Which functions of ``src/`` does anything but the tests reach?

Runs the product entry points (CLI commands, examples, ledger
workloads), the CI battery (conformance, Chrome-trace schema check)
and tier-1, each command in a child process under a call tracer, and
classes every ``src/`` function by the first set that reaches it:
product, ci, test-only or nothing.  Process-pool children (``--workers
2``) are traced too.  Prints each class's function and line totals (a
function's own lines; nested functions count for themselves), then one
``lines  path qualname`` row per function.  Stdlib only and serial; it
takes minutes::

    python benchmarks/traffic.py > traffic.txt

Not traced: ``repro sweep --kind million``, which runs for minutes
(its cells are composite cells, which ``--kind composite`` reaches),
and ``campaign replay`` and the shrinker's search, which only a
violating block reaches.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROTOCOLS = ("PrN", "PrC", "EP", "1PC", "PrA", "PC", "LGL", "1PC-N")
SWEEP_KINDS = ("latency", "disk", "burst", "abort", "figure6", "scaling", "fanout")

#: The child's ``sitecustomize``: every ``src/`` code object called, by (file, first line).
#: A forked pool child leaves through ``os._exit``, so ``atexit`` never
#: runs there; ``BaseProcess._bootstrap`` clears the finalizers the
#: fork copied and then calls the after-fork hooks, so the child's dump
#: is a finalizer registered from such a hook.
TRACER = """\
import atexit, os, sys, tempfile, threading
from multiprocessing import util
_src, _out, _seen = {src!r}, {out!r}, set()
def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_src):
        _seen.add((code.co_filename, code.co_firstlineno))
def _dump():
    with os.fdopen(tempfile.mkstemp(".txt", dir=_out)[0], "w") as fp:
        fp.writelines(f"{{f}}\\t{{n}}\\n" for f, n in _seen)
def _forked(_):
    util.Finalize(None, _dump, exitpriority=0)
atexit.register(_dump)
util.register_after_fork(_dump, _forked)
sys.settrace(_trace)
threading.settrace(_trace)
"""


def product_runs() -> list[list[str]]:
    repro = [sys.executable, "-m", "repro"]
    runs = []
    for p in PROTOCOLS:
        runs += [repro + [cmd, "--protocol", p, "--n", "20"] for cmd in ("burst", "explain")]
    delete = ["--n", "20", "--op", "delete"]
    runs += [repro + ["burst", "--protocol", p, *delete] for p in ("1PC", "PrN")]
    runs += [repro + ["sweep", "--kind", kind, "--n", "8"] for kind in SWEEP_KINDS]
    runs += [repro + ["sweep", "--kind", "composite", "--n", "400", "--groups", "2"]]
    pooled = ["--workers", "2", "--progress", "--json", "sweep.json"]
    runs += [repro + ["sweep", "--kind", "figure6", "--n", "8", *pooled]]
    runs += [repro + ["calibrate", "--n", "8"]]
    runs += [repro + ["trace", "--format", f, "--out", "o"] for f in ("spans", "chrome", "records")]
    fixtures = "tests/lint/fixtures"
    for where in (str(SRC), fixtures):
        runs += [repro + ["lint", where, "--format", f] for f in ("text", "json", "sarif")]
    runs += [repro + ["lint", fixtures, "--select", "DET,GEN002"]]
    runs += [repro + ["lint", "--explain", "DET001"], repro + ["lint", "--list-rules"]]
    runs += [repro + ["report", "--check", "EXPERIMENTS.md"]]
    runs += [repro + ["report", "--only", "table1"]]
    runs += [repro + ["campaign", "run", "--protocol", p, "--runs", "4"] for p in ("1PC", "PrN")]
    campaign = ["--protocol", "1PC", "--runs", "4"]
    runs += [repro + ["campaign", "run", *campaign, "--workers", "2", "--progress",
                      "--json", "campaign.json"]]
    runs += [repro + ["campaign", "shrink", *campaign, "--out", "repro.json"]]
    runs += [repro + ["protocols"], repro + ["protocols", "--json"]]
    runs += [[sys.executable, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    runs += [[sys.executable, "benchmarks/ledger/run.py", "--quick"]]
    return runs


def ci_runs() -> list[list[str]]:
    check = "from repro.harness.conformance import check_protocol; check_protocol({!r})"
    runs = [[sys.executable, "-c", check.format(p)] for p in PROTOCOLS]
    trace = [sys.executable, "-m", "repro", "trace", "--format", "chrome", "--out", "trace.json"]
    validate = [sys.executable, "benchmarks/validate_trace_event.py", "trace.json"]
    return [trace, validate] + runs


def allowed_exits(cmd: list[str]) -> tuple[int, ...]:
    """Exit codes that still count as a run: ``repro lint``, ``repro
    report`` and ``repro campaign run`` exit 1 on findings; anything
    else (a tier-1 run with a failing test above all) must exit 0."""
    args = cmd[3:] if cmd[1:3] == ["-m", "repro"] else []
    finds = args[:1] in (["lint"], ["report"]) or args[:2] == ["campaign", "run"]
    return (0, 1) if finds else (0,)


def traced(runs: list[list[str]], scratch: Path) -> set[tuple[str, int]]:
    """The ``(file, first line)`` of every ``src/`` function the runs call."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    site = Path(tempfile.mkdtemp(dir=scratch))
    (site / "sitecustomize.py").write_text(TRACER.format(src=str(SRC), out=str(out)))
    env = dict(os.environ, PYTHONPATH=f"{site}:{SRC}", PYTHONHASHSEED="0")
    for cmd in runs:
        done = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True)
        if done.returncode not in allowed_exits(cmd):
            output = (done.stdout + done.stderr).decode()[-2000:]
            sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{output}")
    seen = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first = line.split("\t")
            seen.add((path, int(first)))
    return seen


def _is_overload(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A ``typing.overload`` stub: Python never runs its body."""
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "overload"
        for d in node.decorator_list
    )


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> ("path qualname", own lines)`` per ``src/``
    function but ``@overload`` stubs; the first line is the code
    object's (a decorator's)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    table = {}

    def nested(node: ast.AST):  # the functions defined in node's body, not deeper
        for child in ast.iter_child_nodes(node):
            if isinstance(child, defs):
                yield child
            else:
                yield from nested(child)

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, defs):
                if _is_overload(child):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                inner = sum(sub.end_lineno - sub.lineno + 1 for sub in nested(child))
                name = f"{path.relative_to(SRC)} {prefix}{child.name}"
                table[(str(path), first)] = (name, child.end_lineno - first + 1 - inner)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return table


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for entry in ("EXPERIMENTS.md", "examples", "benchmarks", "tests", "pyproject.toml"):
            (scratch / entry).symlink_to(ROOT / entry)
        tier1 = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider"]
        sets = {
            "product": traced(product_runs(), scratch),
            "ci": traced(ci_runs(), scratch),
            "test-only": traced([tier1], scratch),
        }
    classes: dict[str, list[tuple[str, int]]] = {k: [] for k in (*sets, "nothing")}
    for key, (name, lines) in functions().items():
        label = next((k for k, seen in sets.items() if key in seen), "nothing")
        classes[label].append((name, lines))
    for label, members in classes.items():
        print(f"{label:10} {len(members):5} functions {sum(n for _, n in members):6} lines")
    for label in classes:
        print(f"\n## {label}")
        for name, lines in sorted(classes[label]):
            print(f"{lines:5}  {name}")


if __name__ == "__main__":
    main()
