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
from repro.protocols.base import ACKS, Session
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
#: attribute -> protocol -> the class whose definition the engine runs.
#: One row per distinct behaviour: every entry point is the base
#: class's (it starts the engine's session), the 2PC family shares
#: PrN's sessions (Early Prepare and Paxos Commit override the steps
#: that differ), 1PC-N is 1PC, and only the logless engine replaces
#: the log-based ``recover`` and local commit of the base class.
EVERYONE = dict.fromkeys(FAMILY, "Protocol")
DEFINED_BY = {
    "coordinate": EVERYONE,
    "worker_session": EVERYONE,
    "run_local": EVERYONE,
    "handle_stray": FAMILY,
    "recover": {**EVERYONE, "LGL": LGL},
    "Local": {**EVERYONE, "LGL": LGL},
    "Coordinator": {**FAMILY, "EP": "EarlyPrepareProtocol", "PC": "PaxosCommitProtocol"},
    "Worker": {**FAMILY, "EP": "EarlyPrepareProtocol"},
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


class _Listener(Session):
    """A session that receives on txn 99's inbox and logs what it got."""

    def __init__(self, cluster):
        server = cluster.servers["mds1"]
        super().__init__(server.protocol, 99)
        self.inbox = server.open_session(99)
        self.seen = []

    def log(self, ev):
        self.seen.append((ev._value, round(self.sim.now, 9)))


def test_skeleton_recv_until_respects_the_absolute_deadline():
    """``recv_until`` waits in slices but never past the deadline, and
    takes no simulated time once the deadline has passed."""
    from repro.mds.scenarios import distributed_create_cluster

    cluster, _client = distributed_create_cluster("1PC")
    session = _Listener(cluster)
    deadline = cluster.sim.now + 1.0

    def again(ev):
        session.log(ev)
        if len(session.seen) < 4:
            session.recv_until(ACKS, deadline, again, at_most=0.4)

    session.recv_until(ACKS, deadline, again, at_most=0.4)
    cluster.sim.run(until=5.0)
    assert session.seen == [(TIMED_OUT, 0.4), (TIMED_OUT, 0.8), (TIMED_OUT, 1.0), (TIMED_OUT, 1.0)]


def test_skeleton_recv_hands_back_the_getter_with_its_deadline_armed():
    """``recv`` is no generator: it returns the inbox getter, and on an
    empty inbox the awaited getter comes back ``TIMED_OUT`` at exactly
    ``now + timeout``."""
    from repro.mds.scenarios import distributed_create_cluster
    from repro.sim import Event

    cluster, _client = distributed_create_cluster("1PC")
    session = _Listener(cluster)
    start = cluster.sim.now
    get = session.p.recv(session.inbox, ACKS, timeout=0.25)
    assert isinstance(get, Event)
    session.wait(get, session.log)
    cluster.sim.run(until=5.0)
    assert session.seen == [(TIMED_OUT, round(start + 0.25, 9))]


def test_skeleton_recv_until_past_its_deadline_costs_no_kernel_event():
    from repro.mds.scenarios import distributed_create_cluster

    cluster, _client = distributed_create_cluster("1PC")
    sim = cluster.sim
    session = _Listener(cluster)
    sim.run(until=1.0)
    before = (sim.events_processed, len(sim._heap))
    for deadline in (sim.now, sim.now - 0.5):
        session.recv_until(ACKS, deadline, session.log)
    assert session.seen == [(TIMED_OUT, 1.0), (TIMED_OUT, 1.0)]
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
