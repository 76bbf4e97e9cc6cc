"""Unit tests for trace-window triggers."""

import pytest

from repro.faults import WINDOWS, ScheduleFormatError, TraceTrigger, window
from repro.sim import Simulator, TraceLog, TraceRecord


def fresh_trace():
    return TraceLog(Simulator())


def emit(trace, category, actor, **detail):
    """Append the record a hook would (a trigger reads nothing else)."""
    trace.records.append(TraceRecord((trace.sim.now, category, actor, detail, None)))


def test_trigger_matches_category_actor_and_detail():
    trig = TraceTrigger(category="msg_send", actor="mds2", where=(("kind", "UPDATED"),))
    trace = fresh_trace()
    emit(trace, "msg_send", "mds1", kind="UPDATED")
    emit(trace, "msg_send", "mds2", kind="UPDATE_REQ")
    assert not any(trig.matches(r) for r in trace.records)
    emit(trace, "msg_send", "mds2", kind="UPDATED")
    assert any(trig.matches(r) for r in trace.records)


def push(counter, trace, category, actor, **detail):
    """Emit one record and hand it to ``counter`` the way a fault plan does."""
    emit(trace, category, actor, **detail)
    return counter.feed(trace.records[-1])


def test_compiled_predicate_is_incremental_and_counts():
    trig = TraceTrigger(category="fence", actor="mds1", min_count=2)
    counter = trig.compile()
    trace = fresh_trace()
    assert (counter.trigger, counter.min_count, counter.hits) == (trig, 2, 0)
    assert push(counter, trace, "fence", "mds1") is False
    assert push(counter, trace, "fence", "mds2") is False  # right category, wrong actor
    assert counter.hits == 1
    # The hit that reaches min_count says so: the plan arms a poll on it.
    assert push(counter, trace, "fence", "mds1") is True
    assert counter.hits == 2
    # Satisfied stays satisfied; later matches are not even filtered.
    assert push(counter, trace, "fence", "mds1") is False
    assert counter.hits == 2


def test_compiled_predicates_do_not_share_state():
    trig = TraceTrigger(category="fence")
    a, b = trig.compile(), trig.compile()
    trace = fresh_trace()
    push(a, trace, "fence", "mds1")
    assert (a.hits, b.hits) == (1, 0)


def test_compiled_predicate_survives_a_trace_clear():
    """A warm-up ``clear()`` between two hits must not lose the first
    (the old scanning predicate kept an index into the cleared list and
    skipped every record until the trace regrew past it)."""
    counter = TraceTrigger(category="fence", min_count=2).compile()
    trace = fresh_trace()
    for _ in range(3):
        push(counter, trace, "noise", "mds1")
    push(counter, trace, "fence", "mds1")
    trace.clear()
    push(counter, trace, "fence", "mds1")
    assert counter.hits == 2


def test_roundtrip_preserves_trigger():
    trig = TraceTrigger(
        category="log_append", actor="mds2", where=(("sync", True),), min_count=3
    )
    again = TraceTrigger.from_dict(trig.to_dict())
    assert again == trig


@pytest.mark.parametrize(
    "change, message",
    [
        ({"actr": "mds2"}, r"^trigger\.actr: unknown field"),
        ({"min_count": "2"}, r"^trigger\.min_count: wrong type str"),
        ({"min_count": True}, r"^trigger\.min_count: wrong type bool"),
        ({"where": [["kind", "UPDATED"]]}, r"^trigger\.where: wrong type list"),
        ({"min_count": 0}, r"^trigger: min_count must be >= 1"),
        ({"category": ""}, r"^trigger: TraceTrigger requires a category"),
    ],
)
def test_loader_names_the_field_it_rejects(change, message):
    doc = TraceTrigger("fence", actor="mds1").to_dict() | change
    with pytest.raises(ScheduleFormatError, match=message):
        TraceTrigger.from_dict(doc)


@pytest.mark.parametrize("key", ["category", "actor", "where", "min_count"])
def test_loader_wants_every_key_to_dict_writes(key):
    doc = TraceTrigger("fence").to_dict()
    del doc[key]
    with pytest.raises(ScheduleFormatError, match=rf"^trigger\.{key}: missing"):
        TraceTrigger.from_dict(doc)
    with pytest.raises(ScheduleFormatError, match="^trigger: expected an object, got list"):
        TraceTrigger.from_dict([])


def test_where_keys_sorted_for_stable_identity():
    a = TraceTrigger(category="x", where=(("b", 1), ("a", 2)))
    b = TraceTrigger(category="x", where=(("a", 2), ("b", 1)))
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_validation():
    with pytest.raises(ValueError):
        TraceTrigger(category="")
    with pytest.raises(ValueError):
        TraceTrigger(category="fence", min_count=0)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_protocol_windows_construct(name):
    trig = window(name, "mds2")
    assert isinstance(trig, TraceTrigger)
    assert trig.category


def test_unknown_window_rejected():
    with pytest.raises(KeyError):
        window("at-teatime", "mds2")
