"""One commit skeleton, per-protocol deltas (ROADMAP design aim).

Two structural checks over the nine engine files:

* no step of the choreography is spelled twice — any two function
  bodies (docstring stripped) that span three or more source lines and
  have equal ``ast.dump`` fail the test: the shared spelling belongs in
  ``protocols/base.py``;
* every registered engine's protocol surface resolves, through its
  MRO, to the one class that defines that behaviour — a protocol that
  restates an inherited entry point instead of overriding the step
  that differs shows up here.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import repro
from repro.protocols.registry import get_spec, specs
from repro.sim import TIMED_OUT

SRC = Path(repro.__file__).resolve().parent
ENGINE_FILES = [
    *(SRC / "protocols" / f"{n}.py" for n in ("base", "prn", "pra", "prc", "ep", "paxos", "lgl")),
    *(SRC / "core" / f"{n}.py" for n in ("one_phase", "fanout")),
]
#: Bodies shorter than this are one-statement overrides
#: (``presumed_decision``), not choreography.
MIN_BODY_LINES = 3


def _bodies():
    """``(where, dump)`` for every function body worth comparing."""
    for path in ENGINE_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            if not body or body[-1].end_lineno - body[0].lineno + 1 < MIN_BODY_LINES:
                continue
            dump = "\n".join(ast.dump(stmt) for stmt in body)
            yield f"{path.name}:{node.lineno} {node.name}", dump


def test_skeleton_has_no_copied_function_bodies():
    by_dump = defaultdict(list)
    for where, dump in _bodies():
        by_dump[dump].append(where)
    copies = sorted(places for places in by_dump.values() if len(places) > 1)
    assert copies == [], (
        "function bodies spelled more than once across the engine files — "
        f"hoist the shared step into protocols/base.py: {copies}"
    )


TWO_PC = "PresumeNothingProtocol"
ONE_PC = "OnePhaseCommitProtocol"
LGL = "LoglessOnePhaseProtocol"
FAMILY = {
    **dict.fromkeys(("PrN", "PrC", "EP", "PrA", "PC"), TWO_PC),
    **dict.fromkeys(("1PC", "1PC-N"), ONE_PC),
    "LGL": LGL,
}
#: method -> protocol -> the class whose definition the engine runs.
#: One row per distinct behaviour: the 2PC family shares PrN's
#: surface (Paxos Commit wraps ``coordinate`` to release its
#: acceptors), 1PC-N is 1PC, and only the logless engine replaces the
#: log-based ``recover``/``run_local`` of the base class.
DEFINED_BY = {
    "coordinate": {**FAMILY, "PC": "PaxosCommitProtocol"},
    "worker_session": FAMILY,
    "handle_stray": FAMILY,
    "recover": {**dict.fromkeys(FAMILY, "Protocol"), "LGL": LGL},
    "run_local": {**dict.fromkeys(FAMILY, "Protocol"), "LGL": LGL},
}


@pytest.mark.parametrize("protocol", [spec.name for spec in specs()])
def test_skeleton_surface_has_one_definition_per_behaviour(protocol):
    assert protocol in FAMILY, f"{protocol}: say whose protocol surface it reuses"
    engine = get_spec(protocol).engine
    for method, owners in DEFINED_BY.items():
        defined_by = next(cls for cls in engine.__mro__ if method in vars(cls))
        assert defined_by.__name__ == owners[protocol], (
            f"{protocol}.{method} is defined by {defined_by.__name__}, "
            f"expected {owners[protocol]}: override the step that differs, "
            "not the entry point"
        )


def test_skeleton_recv_until_respects_the_absolute_deadline():
    """``recv_until`` waits in slices but never past the deadline, and
    takes no simulated time once the deadline has passed."""
    from repro.mds.scenarios import distributed_create_cluster
    from repro.protocols.base import ACKS

    cluster, _client = distributed_create_cluster("1PC")
    engine = cluster.servers["mds1"].protocol
    inbox = cluster.servers["mds1"].open_session(99)
    seen = []

    def waiter():
        deadline = engine.sim.now + 1.0
        for _ in range(4):
            msg = yield from engine.recv_until(inbox, ACKS, deadline, at_most=0.4)
            seen.append((msg, round(engine.sim.now, 9)))

    cluster.sim.process(waiter(), name="waiter")
    cluster.sim.run(until=5.0)
    assert seen == [(TIMED_OUT, 0.4), (TIMED_OUT, 0.8), (TIMED_OUT, 1.0), (TIMED_OUT, 1.0)]


def test_skeleton_recv_hands_back_the_getter_with_its_deadline_armed():
    """``recv`` is no generator: it returns the inbox getter, and on an
    empty inbox the yielded getter comes back ``TIMED_OUT`` at exactly
    ``now + timeout``."""
    from repro.mds.scenarios import distributed_create_cluster
    from repro.protocols.base import ACKS
    from repro.sim import Event

    cluster, _client = distributed_create_cluster("1PC")
    engine = cluster.servers["mds1"].protocol
    inbox = cluster.servers["mds1"].open_session(99)
    seen = []

    def waiter():
        start = engine.sim.now
        get = engine.recv(inbox, ACKS, timeout=0.25)
        assert isinstance(get, Event)
        msg = yield get
        seen.append((msg, engine.sim.now == start + 0.25))

    cluster.sim.process(waiter(), name="waiter")
    cluster.sim.run(until=5.0)
    assert seen == [(TIMED_OUT, True)]


def test_skeleton_recv_until_past_its_deadline_costs_no_kernel_event():
    from repro.mds.scenarios import distributed_create_cluster
    from repro.protocols.base import ACKS

    cluster, _client = distributed_create_cluster("1PC")
    sim = cluster.sim
    engine = cluster.servers["mds1"].protocol
    inbox = cluster.servers["mds1"].open_session(99)
    sim.run(until=1.0)
    before = (sim.events_processed, len(sim._heap))
    for deadline in (sim.now, sim.now - 0.5):
        with pytest.raises(StopIteration) as done:
            next(engine.recv_until(inbox, ACKS, deadline))
        assert done.value.value is TIMED_OUT
    sim.run(until=2.0)
    assert (sim.events_processed, len(sim._heap)) == before


def test_skeleton_has_no_client_to_answer_on_recovery_paths():
    from repro.mds.scenarios import distributed_create_cluster

    cluster, _client = distributed_create_cluster("PrN")
    engine = cluster.servers["mds1"].protocol
    sent = len(cluster.trace.records)
    assert engine.reply_to_client(None, committed=True) is None
    assert engine.outcome(None, committed=True, replied_at=None) is None
    assert len(cluster.trace.records) == sent
