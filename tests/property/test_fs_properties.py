"""Property-based tests for the metadata store, placement and planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import (
    AddDentry,
    HashPlacement,
    InodeAllocator,
    MetadataStore,
    ObjectId,
    RemoveDentry,
    ShardedSubtreePlacement,
    UpdateError,
    check_invariants,
    plan_create,
    plan_delete,
)

pytestmark = pytest.mark.slow

names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
nodes = st.lists(st.sampled_from(["mds1", "mds2", "mds3", "mds4"]), min_size=1, unique=True)


@given(nodes, st.lists(names, min_size=1, max_size=20))
def test_placement_always_maps_to_known_node(node_list, keys):
    sharded = ShardedSubtreePlacement(node_list, {"/": node_list[0]})
    for placement in (HashPlacement(node_list), sharded):
        for key in keys:
            assert placement.place(ObjectId.directory("/" + key)) in node_list
            assert placement.place(ObjectId.inode(abs(hash(key)) % 10_000)) in node_list


@given(nodes, names)
def test_placement_is_deterministic(node_list, key)  :
    p = HashPlacement(node_list)
    obj = ObjectId.directory("/" + key)
    assert p.place(obj) == p.place(obj)


# A random interleaving of store operations, then crash; stable and
# cache must agree afterwards, and invariant checking must hold for
# fully-hardened histories.
ops = st.lists(
    st.tuples(
        st.sampled_from(["apply_add", "apply_remove", "commit", "harden", "abort", "crash"]),
        st.integers(min_value=1, max_value=5),  # txn id
        names,
    ),
    max_size=40,
)


@given(ops)
@settings(max_examples=120)
def test_store_cache_equals_stable_after_crash(script):
    store = MetadataStore("mds1")
    store.mkdir("/d")
    ino = 1
    for op, txn, name in script:
        try:
            if op == "apply_add":
                store.apply(txn, AddDentry("/d", name, ino))
                ino += 1
            elif op == "apply_remove":
                store.apply(txn, RemoveDentry("/d", name))
            elif op == "commit":
                store.commit(txn)
            elif op == "harden":
                store.harden(txn)
            elif op == "abort":
                store.abort(txn)
            elif op == "crash":
                store.crash()
        except UpdateError:
            store.abort(txn)
    store.crash()
    # After a crash the cache is exactly the stable image.
    assert store.listdir("/d") == store.stable_directories["/d"]
    assert store.in_flight() == [] and store.unhardened() == []


@given(ops)
@settings(max_examples=120)
def test_store_overlay_never_leaks_without_commit(script):
    store = MetadataStore("mds1")
    store.mkdir("/d")
    ino = 1
    committed_names: set[str] = set()
    committed_txns: set[int] = set()
    staged: dict[int, set[str]] = {}
    for op, txn, name in script:
        try:
            if op == "apply_add":
                store.apply(txn, AddDentry("/d", name, ino))
                staged.setdefault(txn, set()).add(name)
                ino += 1
            elif op == "commit":
                store.commit(txn)
                # The store refuses to re-commit an id that is already
                # committed (idempotent replay guard); mirror that.
                if txn not in committed_txns:
                    merged = staged.pop(txn, set())
                    if merged:
                        committed_names |= merged
                        committed_txns.add(txn)
                else:
                    staged.pop(txn, None)
            elif op == "abort":
                store.abort(txn)
                staged.pop(txn, None)
            elif op == "crash":
                store.crash()
                staged.clear()
                # cache reverts to stable; recompute what is visible
                committed_names = set(store.listdir("/d"))
                committed_txns = {t for t in committed_txns if store.has_applied(t)}
            elif op == "harden":
                store.harden(txn)
        except UpdateError:
            store.abort(txn)
            staged.pop(txn, None)
    assert set(store.listdir("/d")) == committed_names


@given(st.lists(names, min_size=1, max_size=15, unique=True), st.integers(0, 3))
@settings(max_examples=60)
def test_create_delete_roundtrip_preserves_invariants(file_names, n_nodes_idx):
    node_list = ["mds1", "mds2", "mds3", "mds4"][: n_nodes_idx + 1]
    placement = HashPlacement(node_list)
    stores = {n: MetadataStore(n) for n in node_list}
    dir_owner = placement.place(ObjectId.directory("/d"))
    stores[dir_owner].mkdir("/d")
    alloc = InodeAllocator()
    txn = 0
    created = {}
    for name in file_names:
        txn += 1
        plan = plan_create(f"/d/{name}", placement, alloc)
        for node, updates in plan.updates.items():
            for update in updates:
                stores[node].apply(txn, update)
            stores[node].commit_durable(txn)
        created[name] = plan.detail["ino"]
    assert check_invariants(stores.values()) == []
    # Delete half of them.
    for name in file_names[::2]:
        txn += 1
        plan = plan_delete(f"/d/{name}", created[name], placement)
        for node, updates in plan.updates.items():
            for update in updates:
                stores[node].apply(txn, update)
            stores[node].commit_durable(txn)
    assert check_invariants(stores.values()) == []
    remaining = set(file_names) - set(file_names[::2])
    assert set(stores[dir_owner].listdir("/d")) == remaining


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
def test_deadlock_cycle_report_is_a_real_cycle(edges):
    from repro.locks import WaitForGraph

    clean = [(a, b) for a, b in edges if a != b]
    graph = WaitForGraph(clean)
    cycle = graph.find_cycle()
    if cycle is None:
        return
    assert len(cycle) >= 2
    for i, node in enumerate(cycle):
        succ = cycle[(i + 1) % len(cycle)]
        assert succ in graph.successors(node)


@given(st.lists(st.integers(0, 9), min_size=2, max_size=10, unique=True))
def test_dag_has_no_deadlock(order):
    """Edges only from later to earlier topological position: acyclic."""
    from repro.locks import find_deadlock_cycle

    edges = [(order[i], order[j]) for i in range(len(order)) for j in range(i)]
    assert find_deadlock_cycle(edges) is None
