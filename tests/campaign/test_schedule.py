"""Schedule generation and loading: determinism, serialisation,
validation, and loaders that reject what they do not understand.  The
shape of what ``generate_schedule`` draws is held by
``tests/faults/test_random_plans.py`` and ``test_small_clusters.py``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.schedule import (
    WINDOW_KINDS,
    CampaignSchedule,
    generate_schedule,
)
from repro.config import NetworkParams, SimulationParams, StorageParams
from repro.exec import RunSpec
from repro.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    ScheduleFormatError,
    TraceTrigger,
    window,
)

NODES = ["mds1", "mds2", "mds3"]


def test_same_seed_same_schedule():
    a = generate_schedule("1PC", seed=42)
    b = generate_schedule("1PC", seed=42)
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.describe() == b.describe()


def test_different_seeds_diverge():
    jsons = {generate_schedule("1PC", seed=s).to_json() for s in range(10)}
    assert len(jsons) > 1


def test_roundtrip_is_exact():
    for seed in range(10):
        sched = generate_schedule("EP", seed=seed, n_faults=4)
        assert CampaignSchedule.from_json(sched.to_json()) == sched


def test_generated_plans_install():
    schedule = generate_schedule("1PC", seed=3, n_faults=5)
    plan = schedule.build_plan()
    assert isinstance(plan, FaultPlan)
    assert plan.faults == list(schedule.faults) and len(plan.faults) == 5


def test_single_node_menu_drops_partition_and_link():
    for seed in range(30):
        sched = generate_schedule("1PC", seed=seed, nodes=("mds1",), n_faults=4)
        for fault in sched.faults:
            assert fault.kind not in ("partition", "link"), fault


def test_window_kinds_produce_triggers():
    hit = False
    for seed in range(30):
        for fault in generate_schedule("1PC", seed=seed, n_faults=4).faults:
            assert (fault.at is None) != (fault.trigger is None)
            if fault.trigger is not None:
                hit = True
    assert hit, "no window-targeted fault drawn in 30 seeds"


def test_empty_nodes_rejected():
    with pytest.raises(ValueError):
        generate_schedule("1PC", seed=0, nodes=())


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault(kind="meteor", node="mds1", at=0.01)
    with pytest.raises(ValueError, match="exactly one"):
        Fault(kind="crash", node="mds1")
    with pytest.raises(ValueError, match="exactly one"):
        Fault(kind="crash", node="mds1", at=0.01, trigger=window("at-vote", "mds1"))
    with pytest.raises(ValueError, match="requires a node"):
        Fault(kind="crash", at=0.01)
    with pytest.raises(ValueError, match="requires a peer"):
        Fault(kind="link", node="mds1", at=0.01)


def test_schedule_validation():
    with pytest.raises(ValueError):
        CampaignSchedule(protocol="", seed=0)
    with pytest.raises(ValueError):
        CampaignSchedule(protocol="1PC", seed=0, n_ops=0)
    with pytest.raises(ValueError):
        CampaignSchedule(protocol="1PC", seed=0, hot_ratio=1.5)


def test_every_window_kind_builds():
    for entry in WINDOW_KINDS:
        kind, window_name = entry.split("@", 1)
        fault = Fault(kind, "mds2", trigger=window(window_name, "mds2"))
        assert fault.describe().startswith(f"{kind}(mds2, trigger(")


# -- serialisation --------------------------------------------------------------

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4))
DELAYS = st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e3), st.just(float("inf")))


@st.composite
def triggers(draw):
    return TraceTrigger(
        category=draw(st.text(min_size=1, max_size=6)),
        actor=draw(st.one_of(st.none(), st.sampled_from(NODES))),
        where=tuple(draw(st.dictionaries(st.text(max_size=4), SCALARS, max_size=3)).items()),
        min_count=draw(st.integers(1, 4)),
    )


@st.composite
def faults(draw):
    timed = draw(st.booleans())
    return Fault(
        kind=draw(st.sampled_from(FAULT_KINDS)),
        node=draw(st.sampled_from(NODES)),
        peer=draw(st.sampled_from(NODES)),
        at=draw(st.floats(min_value=0.0, max_value=10.0)) if timed else None,
        trigger=None if timed else draw(triggers()),
        restart_after=draw(DELAYS),
        heal_after=draw(DELAYS),
        restore_after=draw(DELAYS),
        duration=draw(DELAYS),
    )


@st.composite
def schedules(draw):
    return CampaignSchedule(
        protocol=draw(st.sampled_from(["1PC", "PrN", "EP"])),
        seed=draw(st.integers(0, 2**31)),
        n_ops=draw(st.integers(1, 20)),
        n_clients=draw(st.integers(1, 4)),
        hot_ratio=draw(st.floats(min_value=0.0, max_value=1.0)),
        horizon=draw(st.floats(min_value=1e-3, max_value=5.0)),
        faults=tuple(draw(st.lists(faults(), max_size=4))),
    )


@given(faults())
@settings(deadline=None)
def test_fault_roundtrips_through_its_canonical_form(fault):
    assert Fault.from_dict(fault.to_dict()) == fault
    # ... and through JSON text, which is what a spec identity holds.
    assert Fault.from_dict(json.loads(json.dumps(fault.to_dict()))) == fault


@given(schedules())
@settings(deadline=None)
def test_schedule_json_is_a_fixed_point(schedule):
    text = schedule.to_json()
    assert CampaignSchedule.from_json(text) == schedule
    assert CampaignSchedule.from_json(text).to_json() == text


def test_canonical_form_is_pinned():
    """These bytes are inside ``RunSpec.identity()``, every derived
    seed and every canonical document."""
    fault = Fault("link", "mds1", peer="mds2", trigger=window("at-vote", "mds1"), restore_after=2.0)
    assert json.dumps(fault.to_dict(), sort_keys=True) == (
        '{"kind": "link", "node": "mds1", "peer": "mds2", "restore_after": 2.0, "trigger": '
        '{"actor": "mds1", "category": "msg_recv", "min_count": 1, "where": {"kind": "UPDATE_REQ"}}}'
    )
    assert Fault("crash", "mds2", at=0.5).to_dict() == {"kind": "crash", "node": "mds2", "at": 0.5}


# -- loaders trust nothing ------------------------------------------------------


def test_fault_loader_names_what_it_rejects():
    good = {"kind": "crash", "node": "mds1", "at": 0.01, "restart_after": 5.0}
    assert Fault.from_dict(good) == Fault("crash", "mds1", at=0.01, restart_after=5.0)
    # A misspelt key used to be dropped: a *different* fault ran.
    misspelt = {"kind": "crash", "node": "mds1", "at": 0.01, "restart_afer": 5.0}
    with pytest.raises(ScheduleFormatError, match=r"^fault\.restart_afer: unknown field"):
        Fault.from_dict(misspelt)
    # A missing key used to be a bare KeyError('node').
    with pytest.raises(ScheduleFormatError, match=r"^fault\.node: missing"):
        Fault.from_dict({"kind": "crash", "at": 0.01})
    # A wrong type used to die inside install() as '<' between str and float.
    with pytest.raises(ScheduleFormatError, match=r"^faults\[0\]\.at: wrong type str \('soon'\)"):
        Fault.from_dict(good | {"at": "soon"}, "faults[0]")
    with pytest.raises(ScheduleFormatError, match=r"^fault\.trigger\.category: missing"):
        Fault.from_dict({"kind": "crash", "node": "mds1", "trigger": {}})
    with pytest.raises(ScheduleFormatError, match=r"^fault: unknown fault kind 'meteor'"):
        Fault.from_dict(good | {"kind": "meteor"})
    with pytest.raises(ScheduleFormatError, match=r"^fault: exactly one of 'at' or 'trigger'"):
        Fault.from_dict({"kind": "crash", "node": "mds1"})


def test_schedule_loader_names_the_field_path():
    doc = generate_schedule("1PC", seed=1, n_faults=3).to_dict()
    assert CampaignSchedule.from_dict(doc).to_dict() == doc
    broken = json.loads(json.dumps(doc))
    broken["faults"][1]["restart_afer"] = 5.0
    with pytest.raises(ScheduleFormatError, match=r"^faults\[1\]\.restart_afer: unknown field"):
        CampaignSchedule.from_dict(broken)
    with pytest.raises(ScheduleFormatError, match=r"^n_ops: wrong type str"):
        CampaignSchedule.from_dict(doc | {"n_ops": "6"})
    with pytest.raises(ScheduleFormatError, match=r"^n_opz: unknown field"):
        CampaignSchedule.from_dict(doc | {"n_opz": 6})
    with pytest.raises(ScheduleFormatError, match=r"^horizon: missing"):
        CampaignSchedule.from_dict({k: v for k, v in doc.items() if k != "horizon"})
    with pytest.raises(ScheduleFormatError, match=r"^faults: wrong type dict"):
        CampaignSchedule.from_dict(doc | {"faults": {}})
    with pytest.raises(ScheduleFormatError, match=r"^schedule: n_ops must be >= 1"):
        CampaignSchedule.from_dict(doc | {"n_ops": 0})
    with pytest.raises(ScheduleFormatError, match=r"^schedule: not JSON"):
        CampaignSchedule.from_json("{")
    with pytest.raises(ScheduleFormatError, match=r"^document: expected an object, got list"):
        CampaignSchedule.from_json("[]")


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)


def _damage(draw, holders):
    """Delete or replace one key of one of ``holders``, or add one."""
    holder = draw(st.sampled_from(holders))
    action = draw(st.sampled_from(["delete", "replace", "add"]))
    if action == "add":
        holder[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    else:
        key = draw(st.sampled_from(sorted(holder)))
        if action == "delete":
            del holder[key]
        else:
            holder[key] = draw(JSON_VALUES)


@st.composite
def damaged_documents(draw):
    """A valid schedule document with one node of its tree deleted,
    replaced or joined by a stranger."""
    doc = json.loads(draw(schedules().filter(lambda s: s.faults)).to_json())
    holders = [doc, *doc["faults"]]
    holders += [f["trigger"] for f in doc["faults"] if "trigger" in f]
    _damage(draw, holders)
    return doc


@given(damaged_documents())
@settings(max_examples=300, deadline=None)
def test_loader_fuzz_yields_a_schedule_or_one_typed_error(doc):
    try:
        schedule = CampaignSchedule.from_dict(doc)
    except ScheduleFormatError as err:
        assert ": " in str(err)  # "<field path>: <what is wrong>"
        return
    # Accepted: then it is a schedule like any other.
    assert CampaignSchedule.from_json(schedule.to_json()) == schedule
    schedule.build_plan()


@given(st.one_of(st.text(max_size=40), JSON_VALUES.map(json.dumps)))
@settings(max_examples=200, deadline=None)
def test_from_json_never_leaks_another_exception(text):
    try:
        CampaignSchedule.from_json(text)
    except ScheduleFormatError:
        pass


@st.composite
def run_specs(draw):
    """Every optional key of the spec document present in some draws."""
    schedule = draw(st.one_of(st.none(), schedules()))
    fanout = draw(st.one_of(st.none(), st.integers(1, 4)))
    params = SimulationParams(
        network=NetworkParams(latency=draw(st.floats(min_value=0.0, max_value=1.0))),
        storage=StorageParams(group_commit=draw(st.booleans()), san_concurrency=draw(st.integers(0, 3))),
        seed=draw(st.integers(0, 9)),
    )
    return RunSpec(
        kind=draw(st.sampled_from(["burst", "abort_burst", "scaling"])) if schedule is None else "campaign",
        protocol=draw(st.sampled_from(["1PC", "PrN", "EP"])),
        n=draw(st.integers(1, 200)),
        abort_rate=draw(st.floats(min_value=0.0, max_value=0.99)),
        n_pairs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31)),
        point=draw(st.one_of(st.none(), st.integers(0, 9), st.floats(0.0, 1.0), st.text(max_size=4))),
        params=draw(st.one_of(st.none(), st.just(params))),
        trace=draw(st.booleans()),
        fanout=fanout,
        n_shards=None if fanout is None else draw(st.one_of(st.none(), st.integers(fanout, 8))),
        campaign=None if schedule is None else schedule.to_json(),
        composite=draw(st.one_of(st.none(), st.just("{}"))),
    )


@given(run_specs())
@settings(deadline=None)
def test_run_spec_document_is_a_fixed_point(spec):
    """Through JSON text, which is what a repro document holds; the
    identity, and with it the derived seed, survives the trip."""
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.to_dict() == spec.to_dict()
    assert again.identity() == spec.identity()


@st.composite
def damaged_spec_documents(draw):
    """A valid spec document with one key of it, of its ``params`` or
    of one ``params`` section deleted, replaced or joined by a stranger."""
    doc = json.loads(json.dumps(draw(run_specs()).to_dict()))
    sections = [doc["params"][name] for name in ("network", "storage", "compute", "failure")]
    _damage(draw, [doc, doc["params"], *sections])
    return doc


@given(damaged_spec_documents())
@settings(max_examples=300, deadline=None)
def test_spec_loader_fuzz_yields_a_spec_or_one_typed_error(doc):
    try:
        spec = RunSpec.from_dict(doc)
    except ScheduleFormatError as err:
        assert str(err).startswith("spec") and ": " in str(err)
        return
    # Accepted: then nothing of the document was dropped (``trace`` is
    # written only when set).
    if doc.get("trace") is False:
        del doc["trace"]
    assert json.loads(json.dumps(spec.to_dict())) == doc
