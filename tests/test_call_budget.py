"""The call budget per protocol (ROADMAP item 5b): a ceiling beside the
event budget.

``tests/test_event_budget.py`` pins what the *kernel* does per
transaction; this pins what everything above it spends in Python
frames to get there.  The counter is ``sys.setprofile``'s ``call``
event for every code object that lives under ``src/repro/`` —
generator re-entries included, builtins and the dataclass-generated
``<string>`` frames excluded, which is what makes the number
independent of the interpreter's builtin inventory.  The cell is the
event budget's: ``RunSpec(kind="burst", protocol=P, n=100, seed=0)``.

It is a ceiling, not an exact pin: the exact gate is the ledger's
``calls_per_op`` (``benchmarks/ledger/``), which also counts builtins
and therefore differs between Python versions.  Measured with this
exact counter, calls per committed transaction:

==========  =======  =======
            1PC      PrN
==========  =======  =======
before      625.48   891.84   (the parent of the call diet; 3.10 and 3.11)
call diet   486.51   688.82   (3.11; comprehensions are inlined from 3.12
                               on, which only lowers it)
==========  =======  =======

The ceilings are the second row rounded up to the next 5, so the test
fails at the parent of the call diet by construction.  A change that
trips one put frames back on the per-transaction path: find them with
``python3 benchmarks/ledger/run.py --workload composite-1pc --trace 1``
before raising a ceiling.
"""

import gc
import os
import sys

import pytest

import repro
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: protocol -> ceiling of Python calls under ``src/repro/`` per
#: committed transaction of the 100-create burst cell.
CEILING = {"1PC": 490, "PrN": 690}


def _package_calls(run):
    """``(result, calls)``: ``run()`` and the ``call`` events it raised
    in code objects under ``src/repro/``."""
    owned = {}
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            mine = owned.get(code)
            if mine is None:
                mine = owned[code] = os.path.abspath(code.co_filename).startswith(_PACKAGE)
            calls += mine

    previous = sys.getprofile()
    # Finalising a suspended generator raises a ``call``; when the
    # collector runs is not a property of the code under test.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return result, calls


@pytest.mark.parametrize("protocol", sorted(CEILING))
def test_burst_cell_stays_within_its_call_budget(protocol):
    spec = RunSpec(kind="burst", protocol=protocol, n=100, seed=0)
    cell, calls = _package_calls(lambda: execute_spec(spec))
    assert cell.committed == 100
    assert calls / cell.committed <= CEILING[protocol], (
        f"{protocol}: {calls / cell.committed:.2f} calls per committed transaction"
    )
