"""``benchmarks/traffic.py``: the function table and the exit policy.

No traced run is started here: ``functions()`` only parses ``src/``,
and ``allowed_exits`` is read for the commands the tracer runs.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

TRAFFIC = Path(__file__).resolve().parents[1] / "benchmarks" / "traffic.py"


@pytest.fixture(scope="module")
def traffic():
    spec = importlib.util.spec_from_file_location("traffic_tracer", TRAFFIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_overload_stubs_are_not_functions(traffic):
    """``workloads/cell.py`` declares ``drive`` twice under ``@overload``
    and once for real; only the one Python runs is listed."""
    names = Counter(name for name, _lines in traffic.functions().values())
    assert names["repro/workloads/cell.py drive"] == 1


def test_only_commands_that_report_findings_may_exit_1(traffic):
    repro = [sys.executable, "-m", "repro"]
    for args in (["lint", "src"], ["report", "--check", "EXPERIMENTS.md"], ["campaign", "run"]):
        assert traffic.allowed_exits(repro + args) == (0, 1)
    for cmd in (
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider"],
        repro + ["campaign", "shrink"],
        repro + ["burst", "--protocol", "1PC"],
        [sys.executable, "benchmarks/ledger/run.py", "--quick"],
    ):
        assert traffic.allowed_exits(cmd) == (0,)
