"""The call budget per protocol (ROADMAP item 5b): a ceiling beside the
event budget.

``tests/test_event_budget.py`` pins what the *kernel* does per
transaction; this pins what everything above it spends in Python
frames to get there.  The counter is ``sys.setprofile``'s ``call``
event for every code object that lives under ``src/repro/`` —
generator re-entries included, builtins and the dataclass-generated
``<string>`` frames excluded, which is what makes the number
independent of the interpreter's builtin inventory.  The cell is the
event budget's: ``RunSpec(kind="burst", protocol=P, n=100, seed=0)``,
with the hub off, and for 1PC and PrN also with ``trace="full"`` and as
``run_burst`` on that spec's seed in ``"attribute"`` mode (a spec holds
only ``"off"`` or ``"full"``).

It is a ceiling, not an exact pin: the exact gate is the ledger's
``calls_per_op`` (``benchmarks/ledger/``), which also counts builtins
and therefore differs between Python versions.  Measured with this
exact counter, calls per committed transaction:

===========  =======  =======  ==========  ==========  ===========  =========  =========  ===========
             1PC      PrN      1PC traced  PrN traced  per record   1PC attr.  PrN attr.  per hook
===========  =======  =======  ==========  ==========  ===========  =========  =========  ===========
before       625.48   891.84
call diet    486.51   688.82   735.60      1004.91     6.56 / 6.45
trace path   402.93   548.00   514.15      680.22      2.93 / 2.70
timer diet   377.93   508.00   489.15      640.22      2.93 / 2.70
route table  377.93   508.00   459.16      602.23      2.14 / 1.92
frame diet   354.95   467.02   436.18      561.25      2.14 / 1.92
hub-off      318.93   418.01   428.15      549.23      2.87 / 2.68
stream only  318.93   418.01   412.59      533.67      2.47 / 2.36
steps        312.96   410.03   406.62      525.69      2.47 / 2.36
attribute    312.96   410.03   406.62      525.69      2.47 / 2.36   403.54     522.61     2.38 / 2.30
hook fold    312.96   410.03   404.36      523.43      2.41 / 2.32   359.94     468.01     1.24 / 1.18
===========  =======  =======  ==========  ==========  ===========  =========  =========  ===========

The other registered protocols, untraced, at the hub-off diet: PrC
376.99, EP 332.75, PrA 418.01, PC 778.24 or 781.24, LGL 354.13, 1PC-N
317.90; since *steps*: PrC 372.01, EP 329.77, PrA 410.03, PC 744.27 or 747.27,
LGL 350.16, 1PC-N 311.93.  PC's two values are the hash seed's: its
vote tally iterates a set of node names, so where an ``any(...)``
stops varies by run.

(*before* is the parent of the call diet, on 3.10 and 3.11; the other
rows are 3.11 — comprehensions are inlined from 3.12 on, which only
lowers them.)

*Attribute* is the attribute-mode hub, whose hooks still called a
second frame to fold; *hook fold* is where each hook folds its own
arguments, inline, into counts, histograms, precedence edges and the
transaction's accumulator, in both modes, and calls ``_emit`` only for
a record it builds (in attribute mode none: the cell keeps none).  The
two attribute ceilings are that row rounded up to the next 5.  *Per
hook* is what attribute mode adds, ``(attribute - untraced) * 100 /
records`` with the full row's record count, one per hook call: the
hook frame itself plus the histograms' ``observe`` frames and the
span-lifecycle hooks that return at once.  It is capped at 1.25
package frames, so a hook that calls out to fold again trips it.

Every untraced ceiling is the *steps* measurement rounded up to the
next 5: every hook site on the per-transaction path reads
``obs.enabled`` before it calls the hub, a delivery is the destination
endpoint's own ``deliver`` run by its timer, the lock table's grant
check allocates nothing, and a protocol session is steps the kernel
calls back, not a process whose generator frames it re-enters (*steps*
set every ceiling, the traced ones included).  Every
registered protocol has an untraced ceiling, so none of them can put
frames back unnoticed; the traced rows are the two the paper
compares.  *Per record* is what switching the hub on costs,
``(traced - untraced) / records`` with 3,799 (1PC) and 4,899 (PrN)
trace records in the cell: the hook and ``_emit``, plus the
per-transaction span lifecycle and the one fold of spans and metrics
that reading the cell's metrics runs, spread over its records.  It is
capped at 2.5 package frames for both protocols, whatever the two
absolute numbers do.  The cap rose from 2.2 at the hub-off diet
although the traced rows fell: the untraced row no longer pays about
27 (1PC) / 36 (PrN) disabled-hook frames per transaction, so the
difference now counts the hook frames themselves, which it used to
cancel.  *Stream only* is where a hook writes the record and nothing
else — spans and metrics are folded when read — and set the cap
(rounded up to the next 0.1).  An untraced burst enters ``src/repro/obs/`` only to
build the hub, as many times at n=10 as at n=100.  A change that trips
a row put frames back on the per-transaction path: find them with
``python3 benchmarks/ledger/run.py --workload composite-1pc --trace
1`` (``traced-burst`` for a traced row) before raising a ceiling.

The kernel rows at the bottom count builtins too, exactly: a timer is
one ``heappush``, one ``heappop`` and the frames of ``after`` and of its
callback; a process resumption adds ``send`` and no guard call.  Any
edit under ``src/repro/sim/`` that trips them also shows on the
ledger's ``kernel-churn``.
"""

import functools
import gc
import os
import sys
from collections import Counter

import pytest

import repro
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec
from repro.protocols import default_protocols
from repro.sim import Simulator
from repro.workloads import run_burst

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HUB = os.path.join(_PACKAGE, "obs") + os.sep

#: protocol -> ceiling of Python calls under ``src/repro/`` per
#: committed transaction of the 100-create burst cell.
CEILING = {
    "PrN": 415,
    "PrC": 375,
    "EP": 330,
    "1PC": 315,
    "PrA": 415,
    "PC": 750,
    "LGL": 355,
    "1PC-N": 315,
}
#: The same with ``trace="full"``: every hook writes its record.
TRACED_CEILING = {"1PC": 410, "PrN": 530}
#: The same with ``trace="attribute"``: every hook folds, none records.
ATTRIBUTE_CEILING = {"1PC": 360, "PrN": 470}
#: Ceiling of what the hub adds, in package frames per trace record.
FRAMES_PER_RECORD = 2.5
#: Ceiling of what an attribute hub adds, in package frames per hook call.
FRAMES_PER_HOOK = 1.25
#: Frames an untraced burst runs under ``src/repro/obs/``: the
#: constructors of the disabled hub and its span and metric views.
HUB_CONSTRUCTORS = 3


def _profiled(profiler, run):
    """``run()`` under ``sys.setprofile(profiler)``, collector off."""
    previous = sys.getprofile()
    # Finalising a suspended generator raises a ``call``; when the
    # collector runs is not a property of the code under test.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        return run()
    finally:
        sys.setprofile(previous)
        gc.enable()


def _package_calls(run, under=_PACKAGE):
    """``(result, calls)``: ``run()`` and the ``call`` events it raised
    in code objects under ``under`` (by default all of ``src/repro/``)."""
    owned = {}
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            mine = owned.get(code)
            if mine is None:
                mine = owned[code] = os.path.abspath(code.co_filename).startswith(under)
            calls += mine

    return _profiled(profiler, run), calls


@functools.cache  # the traced rows subtract the untraced measurement
def _calls_per_transaction(protocol, trace):
    """``(calls per committed transaction, trace records)`` of the cell.
    A spec holds ``"off"`` or ``"full"``; the attribute row runs the
    burst on the off spec's seed, as ``repro explain`` does."""
    if trace == "attribute":
        params = RunSpec(kind="burst", protocol=protocol, n=100, seed=0).seeded_params()
        burst, calls = _package_calls(
            lambda: run_burst(protocol, n=100, params=params, trace=trace)
        )
        assert burst.committed == 100
        return calls / burst.committed, len(burst.cluster.trace.records)
    spec = RunSpec(kind="burst", protocol=protocol, n=100, seed=0, trace=trace)
    cell, calls = _package_calls(lambda: execute_spec(spec, keep_cluster=True))
    assert cell.committed == 100
    return calls / cell.committed, len(cell.payload.cluster.trace.records)


def test_budget_table_covers_every_registered_protocol():
    assert set(CEILING) == set(default_protocols())


@pytest.mark.parametrize("protocol", default_protocols())
def test_burst_cell_stays_within_its_call_budget(protocol):
    calls, records = _calls_per_transaction(protocol, trace="off")
    assert records == 0
    assert calls <= CEILING[protocol], (
        f"{protocol}: {calls:.2f} calls per committed transaction"
    )


@pytest.mark.parametrize("protocol", sorted(TRACED_CEILING))
def test_traced_burst_cell_stays_within_its_call_budget(protocol):
    untraced, _ = _calls_per_transaction(protocol, trace="off")
    traced, records = _calls_per_transaction(protocol, trace="full")
    assert traced <= TRACED_CEILING[protocol], (
        f"{protocol}: {traced:.2f} calls per committed transaction with the hub on"
    )
    per_record = (traced - untraced) * 100 / records
    assert per_record <= FRAMES_PER_RECORD, (
        f"{protocol}: the hub adds {per_record:.2f} package frames per trace record"
    )


@pytest.mark.parametrize("protocol", sorted(ATTRIBUTE_CEILING))
def test_attribute_mode_burst_cell_stays_within_its_call_budget(protocol):
    calls, records = _calls_per_transaction(protocol, trace="attribute")
    assert records == 0
    assert calls <= ATTRIBUTE_CEILING[protocol], (
        f"{protocol}: {calls:.2f} calls per committed transaction in attribute mode"
    )


@pytest.mark.parametrize("protocol", sorted(ATTRIBUTE_CEILING))
def test_an_attribute_hook_costs_about_one_frame(protocol):
    """Each hook folds its own arguments in its own frame: the
    attribute hub adds at most ``FRAMES_PER_HOOK`` package frames per
    hook call, counted as the same burst's full-mode records."""
    untraced, _ = _calls_per_transaction(protocol, trace="off")
    attribute, _ = _calls_per_transaction(protocol, trace="attribute")
    _, hooks = _calls_per_transaction(protocol, trace="full")
    per_hook = (attribute - untraced) * 100 / hooks
    assert per_hook <= FRAMES_PER_HOOK, (
        f"{protocol}: the attribute hub adds {per_hook:.2f} package frames per hook"
    )


@pytest.mark.parametrize("protocol", default_protocols())
def test_an_untraced_burst_enters_the_hub_only_to_build_it(protocol):
    """No hook site on the per-transaction path calls a disabled hub:
    the count is the hub's constructors, whatever the burst's size."""
    entries = []
    for n in (10, 100):
        spec = RunSpec(kind="burst", protocol=protocol, n=n, seed=0)
        cell, calls = _package_calls(lambda: execute_spec(spec), under=_HUB)
        assert cell.committed == n
        entries.append(calls)
    assert entries[0] == entries[1] == HUB_CONSTRUCTORS, entries


def _all_calls(run):
    """``(frames, builtins)``: every Python frame ``run()`` entered and
    every C function it called, counted by name."""
    frames, builtins = Counter(), Counter()

    def profiler(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1
        elif event == "c_call":
            builtins[arg.__name__] += 1

    _profiled(profiler, run)
    del builtins["setprofile"]  # the switch-off is a C call too
    return frames, builtins


def test_a_timer_costs_one_heap_entry_and_two_frames():
    sim = Simulator()

    def tick(left):
        if left:
            sim.after(1e-3, tick, left - 1)

    def chain():
        sim.after(0.0, tick, 999)
        sim.run()

    frames, builtins = _all_calls(chain)
    assert sim.events_processed == 1000
    assert frames == {"chain": 1, "run": 1, "after": 1000, "tick": 1000}
    # ``isinstance`` is ``run()`` looking at ``until``, once.
    assert builtins == {"heappush": 1000, "heappop": 1000, "isinstance": 1}


def test_a_resumption_costs_its_event_and_a_send_and_no_guard_call():
    sim = Simulator()

    def sleeper():
        for _ in range(1000):
            yield sim.timeout(1e-3)

    def drive():
        sim.process(sleeper(), name="sleeper")
        sim.run()

    frames, builtins = _all_calls(drive)
    assert sim.events_processed == 1002  # kick-start, 1000 timeouts, completion
    assert frames["_resume"] == frames["sleeper"] == 1001 and frames["timeout"] == 1000
    assert "_schedule" not in frames
    assert builtins == {"heappush": 1002, "heappop": 1002, "send": 1001, "isinstance": 1}
