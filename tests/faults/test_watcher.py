"""The trace-armed fault watcher: same fire instants as a polling loop,
no wake-up when the trace is quiet.

``FaultPlan`` used to run a process that woke every ``poll_interval``
and scanned the trace for every pending fault.  It now subscribes to
the records of the categories its triggers filter on, counts each
trigger's hits as they arrive, and arms one timer for the next grid
instant only when a count is reached.  The polling loop lives on here,
as the reference the fire instants are compared against (``==`` on
floats).
"""

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Fault, FaultPlan, TraceTrigger
from repro.obs import Observability
from repro.sim import Simulator
from tests.protocols.conftest import make_cluster

NEVER = TraceTrigger("no-such-category")


def reference_watch(cluster, faults, poll_interval, watch_until):
    """The polling watcher this repo ran before triggers subscribed:
    every grid instant, every pending trigger, the whole trace."""
    pending = list(faults)
    while pending:
        if watch_until is not None and cluster.sim.now >= watch_until:
            return
        yield cluster.sim.timeout(poll_interval)
        for fault in list(pending):
            hits = sum(map(fault.trigger.matches, cluster.trace.records))
            if hits >= fault.trigger.min_count:
                cluster.obs.annotate("fault", "injector", fault=fault.describe())
                fault.apply(cluster)
                pending.remove(fault)


@dataclass(frozen=True)
class Mark(Fault):
    """Records when it fired; optionally emits a record some other
    fault may be waiting for, now or ``echo_after`` seconds later."""

    kind: str = "refuse"
    node: str = "n"
    name: str = ""
    echo: str = ""
    echo_after: float = 0.0

    def apply(self, cluster):
        cluster.fired.append((self.name, cluster.sim.now))
        if self.echo and self.echo_after:
            cluster.sim.after(
                self.echo_after, lambda _t: cluster.obs.annotate(self.echo, self.name)
            )
        elif self.echo:
            cluster.obs.annotate(self.echo, self.name)


def bare_cluster():
    """Just what a plan touches: a kernel, a hub, its trace."""
    sim = Simulator()
    obs = Observability(sim)
    return SimpleNamespace(sim=sim, obs=obs, trace=obs.trace, fired=[], servers={"n": None})


def grid(start, step, k):
    """The ``k``-th poll instant, by repeated addition like the kernel."""
    for _ in range(k):
        start += step
    return start


def run_once(subscribing, install_at, step, until, emissions, specs, horizon=1.0):
    """One run; ``specs`` is ``[(category, min_count, echo, echo_after)]``.

    Emissions are scheduled before the plan exists, so one that lands
    exactly on a grid instant precedes that instant's poll under both
    watchers (the tie rule in ``FaultPlan``'s docstring).
    """
    cluster = bare_cluster()
    for when, category in emissions:
        cluster.sim.at(when, lambda _t, c=category: cluster.obs.annotate(c, "src"))
    cluster.sim.run(until=install_at)
    faults = []
    for i, (category, n, echo, echo_after) in enumerate(specs):
        trigger = TraceTrigger(category, min_count=n)
        faults.append(Mark(trigger=trigger, name=f"f{i}", echo=echo, echo_after=echo_after))
    if subscribing:
        FaultPlan(faults, poll_interval=step, watch_until=until).install(cluster)
    else:
        cluster.sim.process(reference_watch(cluster, faults, step, until))
    cluster.sim.run(until=horizon)
    return cluster


CATEGORIES = st.sampled_from(["a", "b", "c"])
STEPS = st.sampled_from([50e-6, 0.5e-3, 0.3e-3, 1e-3, 7e-3])


@st.composite
def watcher_cases(draw):
    step = draw(STEPS)
    install_at = draw(st.sampled_from([0.0, 0.01, 0.0123]))
    until = draw(st.sampled_from([None, None, 0.02, 0.05, install_at + 3 * step]))
    instants = st.one_of(
        st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        # exactly on the grid
        st.integers(min_value=1, max_value=40).map(lambda k: grid(install_at, step, k)),
    )
    emissions = draw(st.lists(st.tuples(instants, CATEGORIES), min_size=1, max_size=16))
    specs = draw(
        st.lists(
            st.tuples(
                CATEGORIES,
                st.integers(min_value=1, max_value=2),
                st.sampled_from(["", "a", "b", "c"]),
                st.sampled_from([0.0, step, 2 * step, 0.4 * step, 1.7e-3]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return install_at, step, until, emissions, specs


@given(watcher_cases())
@settings(max_examples=150, deadline=None)
def test_faults_fire_at_the_instants_a_polling_loop_fires_them(case):
    polled = run_once(False, *case)
    subscribed = run_once(True, *case)
    assert subscribed.fired == polled.fired
    assert [(r.time, r.category, r.actor) for r in subscribed.trace.records] == [
        (r.time, r.category, r.actor) for r in polled.trace.records
    ]
    assert subscribed.sim.events_processed <= polled.sim.events_processed


def test_record_exactly_on_a_grid_instant_fires_at_that_instant():
    step = 0.5e-3
    on_grid = grid(0.0, step, 7)
    case = (0.0, step, None, [(on_grid, "a")], [("a", 1, "", 0.0)])
    assert run_once(True, *case).fired == [("f0", on_grid)]
    assert run_once(False, *case).fired == [("f0", on_grid)]


@pytest.mark.parametrize("subscribing", [True, False])
def test_record_of_a_fired_fault_reaches_later_faults_now_earlier_ones_next_poll(subscribing):
    step = 0.5e-3
    # f1 fires on "a" and emits "b"; f0 (before it in plan order) and f2
    # (after it) both wait for "b".
    specs = [("b", 1, "", 0.0), ("a", 1, "b", 0.0), ("b", 1, "", 0.0)]
    cluster = run_once(subscribing, 0.0, step, None, [(1e-4, "a")], specs)
    first, second = grid(0.0, step, 1), grid(0.0, step, 2)
    assert cluster.fired == [("f1", first), ("f2", first), ("f0", second)]


def test_quiet_trace_costs_no_kernel_events():
    """A never-matching trigger adds no poll at all: the plan hears no
    record of its category, and the trace growing is no news to it."""

    def run(plan):
        cluster, client = make_cluster("1PC")
        if plan is not None:
            plan.install(cluster)
        client.submit(client.plan_create("/dir1/f0"))
        cluster.sim.run(until=1.0)
        busy = cluster.sim.events_processed
        cluster.sim.run(until=300.0)
        return cluster, busy

    step = 0.5e-3
    bare, bare_busy = run(None)
    plan = FaultPlan([Fault("crash", "mds2", trigger=NEVER)], poll_interval=step)
    watched, watched_busy = run(plan)
    assert len(watched.trace) == len(bare.trace) > 0
    polls = watched_busy - bare_busy
    assert polls == 0
    # 299 virtual seconds of silence: not one wake-up (a polling loop
    # would have spent 598,000 events here).
    assert watched.sim.events_processed - watched_busy == bare.sim.events_processed - bare_busy
    assert plan.fired == []


def test_plan_unsubscribes_when_every_fault_has_fired():
    cluster = run_once(True, 0.0, 0.5e-3, None, [(1e-3, "a")], [("a", 1, "", 0.0)])
    assert cluster.fired and cluster.obs.listeners == []


def test_plan_unsubscribes_at_the_first_record_past_its_horizon():
    """...of the records it hears: those of its triggers' categories."""
    cluster = bare_cluster()
    plan = FaultPlan([Mark(trigger=TraceTrigger("a"))], poll_interval=0.5e-3, watch_until=0.01)
    plan.install(cluster)
    assert len(cluster.obs.listeners) == 1
    cluster.sim.at(0.005, lambda _t: cluster.obs.annotate("b", "src"))
    cluster.sim.at(0.5, lambda _t: cluster.obs.annotate("a", "src"))
    cluster.sim.run(until=0.1)
    assert len(cluster.obs.listeners) == 1
    before = cluster.sim.events_processed
    cluster.sim.run(until=1.0)
    assert cluster.obs.listeners == []
    assert cluster.sim.events_processed == before + 1  # the emission, no poll


def test_plan_installed_past_its_horizon_never_polls():
    cluster = bare_cluster()
    cluster.sim.run(until=1.0)
    FaultPlan([Mark(trigger=NEVER)], watch_until=0.5).install(cluster)
    cluster.obs.annotate("a", "src")
    assert cluster.obs.listeners == []
    assert cluster.sim.peek() == float("inf")


def test_records_older_than_the_plan_count():
    """A trigger counts the whole trace, not just what follows the
    install: a window already open fires at the first grid instant."""
    cluster = bare_cluster()
    cluster.obs.annotate("a", "src")
    cluster.sim.run(until=0.25)
    FaultPlan([Mark(trigger=TraceTrigger("a"), name="open")], poll_interval=0.5e-3).install(cluster)
    cluster.sim.run(until=1.0)
    assert cluster.fired == [("open", 0.25 + 0.5e-3)]


def test_equal_faults_each_fire_once():
    """Faults are values: two equal ones are still two faults."""
    cluster = bare_cluster()
    twin = Mark(trigger=TraceTrigger("a"), name="twin")
    plan = FaultPlan([twin, twin], poll_interval=0.5e-3)
    plan.install(cluster)
    cluster.sim.at(1e-3, lambda _t: cluster.obs.annotate("a", "src"))
    cluster.sim.run(until=1.0)
    assert [name for name, _ in cluster.fired] == ["twin", "twin"]
    assert plan.fired == [twin, twin] and cluster.obs.listeners == []


def test_trace_clear_between_two_hits_does_not_strand_a_trigger():
    cluster = bare_cluster()
    fault = Mark(trigger=TraceTrigger("a", min_count=2), name="twice")
    FaultPlan([fault], poll_interval=0.5e-3).install(cluster)
    for when in (1e-3, 2e-3, 3e-3):
        cluster.sim.at(when, lambda _t: cluster.obs.annotate("noise", "src"))
    cluster.sim.at(4e-3, lambda _t: cluster.obs.annotate("a", "src"))
    cluster.sim.at(5e-3, lambda _t: cluster.trace.clear())
    cluster.sim.at(6e-3, lambda _t: cluster.obs.annotate("a", "src"))
    cluster.sim.run(until=1.0)
    assert [name for name, _ in cluster.fired] == ["twice"]


def test_trace_triggered_fault_on_an_untraced_cluster_is_rejected():
    cluster, _client = make_cluster("1PC", trace="off")
    plan = FaultPlan(
        [
            Fault("crash", "mds2", at=1e-3),
            Fault("crash", "mds1", trigger=TraceTrigger("fence")),
        ]
    )
    with pytest.raises(
        ValueError, match=r"1 fault\(s\).*trace-triggered.*: crash\(mds1, trigger\(fence\)\)$"
    ):
        plan.install(cluster)
    assert not plan.installed
    # Timed faults never needed the trace.
    FaultPlan([Fault("crash", "mds2", at=1e-3)]).install(cluster)
    cluster.sim.run(until=0.01)
    assert cluster.servers["mds2"].crashed
