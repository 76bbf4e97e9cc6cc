"""GEN — coroutine-safety rules.

Simulation processes are generators driven by the deterministic
kernel (:mod:`repro.sim.kernel`), and protocol sessions are steps the
step interpreter (:class:`repro.protocols.base.Session`) calls back.
Two classes of bugs defeat them:

* a *blocking host call* (``time.sleep``, real file/socket IO) inside
  a process or a session step stalls the whole single-threaded kernel
  and couples the run to the host environment;
* a call that *returns a wait* — a generator to drive or an event to
  yield or hand to ``session.wait`` — whose result is dropped on the
  floor: a generator's body silently never executes (the classic
  "forgot ``yield from``" bug), a WAL force is never waited for, and an
  inbox getter nobody waits on still takes the session's next matching
  message.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, is_generator, walk_own
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Calls that block on the host or do real IO: forbidden inside
#: simulation generator processes and anywhere in the protocol engines.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "input",
        "open",
        "io.open",
        "os.system",
        "os.popen",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
    }
)

#: Calls that return a wait, by dotted-name suffix: the events
#: ``wal.force`` (the flush) and ``recv`` (the inbox getter), and the
#: generators ``probe_worker_log``, ``read_remote_log`` and
#: ``fencing_driver.fence``.  One-part suffixes match any call spelled
#: ``...name(...)``; two-part suffixes require the receiver attribute
#: as well, so e.g. ``obs.fence`` (a plain hook) is not confused with
#: ``fencing_driver.fence``.
WAIT_SUFFIXES: frozenset[tuple[str, ...]] = frozenset(
    {
        ("wal", "force"),
        ("recv",),
        ("probe_worker_log",),
        ("read_remote_log",),
        ("fencing_driver", "fence"),
    }
)

#: Call targets that legitimately *consume* a wait besides ``yield``
#: and ``yield from``: a protocol session's ``wait`` (the step
#: interpreter), and scheduling a generator as a kernel process.
_CONSUMER_CALLEES = frozenset({"wait", "process", "Process"})

#: Areas whose every function may run inside the kernel: a protocol
#: session's steps are plain methods, so "is a generator" misses them.
_ENGINE_AREAS = frozenset({"protocols", "core"})


@register
class BlockingCallRule(Rule):
    id = "GEN001"
    summary = "no blocking host calls (time.sleep, real IO) in processes or session steps"
    rationale = (
        "A simulation process or a protocol-session step must advance "
        "virtual time through the kernel (yield sim.timeout(...), "
        "self.wait(...)); a host sleep or real IO call blocks the "
        "deterministic kernel and ties results to the machine."
    )
    good_example = "yield sim.timeout(0.5)"
    bad_example = "time.sleep(0.5)  # inside a generator process or a session step"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src:
            return
        engine = ctx.area in _ENGINE_AREAS
        for fn in ctx.functions():
            if not (engine or is_generator(fn)):
                continue
            for node in walk_own(fn):
                if not isinstance(node, ast.Call):
                    continue
                qualified = ctx.qualified_name(node.func)
                if qualified in BLOCKING_CALLS:
                    yield ctx.finding(
                        node,
                        self.id,
                        f"blocking call {qualified}() inside {fn.name!r}, which "
                        "runs on the kernel; use sim.timeout()/simulated resources",
                    )


@register
class DroppedWaitRule(Rule):
    id = "GEN002"
    summary = "a call that returns a wait must be yielded"
    rationale = (
        "A WAL force or an inbox receive returns the event to wait on, "
        "and a fencing action or a remote log read returns a generator; "
        "unless the caller waits on it (`yield`, `yield from`, "
        "session.wait(...) or sim.process(...)) nobody waits for the "
        "flush, a generator's body never runs, and an orphaned getter "
        "takes the session's next matching message."
    )
    good_example = "self.wait(self.wal.force(record), self._durable)"
    bad_example = "self.wal.force(record)  # flush event dropped, never waited for"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_src:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None or not _is_wait_call(dotted):
                continue
            if _is_consumed(ctx, node):
                continue
            yield ctx.finding(
                node,
                self.id,
                f"the wait {'.'.join(dotted)}(...) returns is never yielded; "
                "yield it (`yield`, `yield from`) or hand it to wait(...) or sim.process(...)",
            )


def _is_wait_call(dotted: tuple[str, ...]) -> bool:
    for suffix in WAIT_SUFFIXES:
        if len(dotted) >= len(suffix) and tuple(dotted[-len(suffix) :]) == suffix:
            return True
    return False


def _is_consumed(ctx: FileContext, call: ast.Call) -> bool:
    """Whether the wait ``call`` returns is actually waited for."""
    parent = ctx.parent(call)
    if isinstance(parent, (ast.YieldFrom, ast.Yield, ast.Await, ast.Return)):
        # `yield` / `yield from f(...)` waits on it; `return f(...)`
        # hands the wait to the caller.
        return True
    if isinstance(parent, ast.Call) and parent.func is not call:
        callee = ctx.dotted_name(parent.func)
        if callee is not None and callee[-1] in _CONSUMER_CALLEES:
            return True
    return False
