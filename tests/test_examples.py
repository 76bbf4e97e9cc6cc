"""The scripts under ``examples/`` run: nothing else executes them."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "examples").glob("*.py"))


def run_example(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_exits_zero(script):
    run_example(script)


def test_failure_drill_runs_and_every_act_ends_consistent():
    done = run_example(ROOT / "examples" / "failure_drill.py")
    verdicts = [line for line in done.stdout.splitlines() if line.lstrip().startswith("=>")]
    assert len(verdicts) == 3
    assert all("invariants: OK" in line for line in verdicts), verdicts
    # Act 1 aborts the create, acts 2 and 3 decide it from the log.
    assert "/dir1 = {}" in verdicts[0]
    assert "'saved'" in verdicts[1] and "'redone'" in verdicts[2]
