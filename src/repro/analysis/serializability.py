"""Serial-equivalence verification.

Strict two-phase locking serialises conflicting transactions in commit
order, so the final durable state of a run must equal a *serial* replay
of exactly the committed operations, ordered by their commit points.
This module performs that replay and diffs the images — the executable
form of the Isolation property the paper's §II defines.

The serialisation point used is the coordinator's reply time: under
strict 2PL the coordinator holds its locks until the commit decision,
so reply order is a valid serial order for conflicting transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.fs.objects import UpdateError
from repro.fs.operations import OpPlan
from repro.fs.store import MetadataStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster
    from repro.sim import TraceLog


@dataclass(frozen=True)
class SerializabilityViolation:
    """One difference between the run's state and the serial replay."""

    node: str
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.node}] {self.kind}: {self.detail}"


def replay_serial(
    plans: Iterable[OpPlan],
    bootstrap_dirs: Mapping[str, str],
) -> dict[str, MetadataStore]:
    """Apply ``plans`` one after another on fresh stores.

    ``bootstrap_dirs`` maps directory path -> owning node (the
    directories the cluster provisioned outside transactions).
    Raises :class:`UpdateError` if the serial history itself is
    inconsistent — which would mean the committed set could not have
    been produced by any serial execution.
    """
    stores: dict[str, MetadataStore] = {}

    def store(node: str) -> MetadataStore:
        if node not in stores:
            stores[node] = MetadataStore(node)
        return stores[node]

    for path, node in bootstrap_dirs.items():
        store(node).mkdir(path)

    for txn_id, plan in enumerate(plans, start=1):
        for node, updates in plan.updates.items():
            for update in updates:
                store(node).apply(txn_id, update)
            store(node).commit_durable(txn_id)
    return stores


def committed_plans_in_commit_order(
    cluster: "Cluster", plans_by_key: Mapping[tuple[str, str], OpPlan]
) -> list[OpPlan]:
    """The committed subset of ``plans_by_key``, in serialisation order.

    ``plans_by_key`` maps ``(op, path)`` to the submitted plan; every
    committed outcome must have a unique key (true for the bundled
    workload generators).
    """
    committed = sorted(
        (o for o in cluster.outcomes if o.committed), key=lambda o: o.replied_at
    )
    ordered = []
    for outcome in committed:
        key = (outcome.op, outcome.path)
        if key not in plans_by_key:
            raise KeyError(f"no plan recorded for committed outcome {key}")
        ordered.append(plans_by_key[key])
    return ordered


def precedence_graph(trace: "TraceLog") -> "list[tuple[object, object]]":
    """Conflict-precedence edges from the lock-grant trace.

    For every lockable object of a lock manager, transactions touch it
    in grant order; each consecutive pair contributes an edge
    ``earlier -> later``.  Strict 2PL guarantees the union over all
    objects is acyclic — the textbook conflict-serializability
    criterion — :func:`assert_conflict_serializable` checks it.

    A node's lock table is volatile, so its ``crash`` record cuts every
    grant chain of its manager (``locks:<node>``): recovery re-acquires
    locks for the transactions it redoes, in an order of its own, and
    chaining those onto pre-crash grants would report a cycle between
    transactions that never held conflicting locks at the same time.
    """
    last_grant: dict[str, dict[str, int]] = {}
    edges: list[tuple[object, object]] = []
    for rec in trace.records:
        if rec.category == "crash":
            last_grant.pop(f"locks:{rec.actor}", None)
        elif rec.category == "lock_grant":
            txn = rec.get("txn")
            if not isinstance(txn, int):
                continue  # stat readers and other non-transaction lockers
            granted = last_grant.setdefault(rec.actor, {})
            obj = str(rec.get("obj"))
            earlier = granted.get(obj)
            if earlier is not None and earlier != txn:
                edges.append((earlier, txn))
            granted[obj] = txn
    return edges


def assert_conflict_serializable(trace: "TraceLog") -> None:
    """Raise AssertionError with the cycle if the precedence graph has
    one."""
    from repro.locks import find_deadlock_cycle

    cycle = find_deadlock_cycle(set(precedence_graph(trace)))
    assert cycle is None, f"conflict cycle between transactions: {cycle}"


def verify_serial_equivalence(
    cluster: "Cluster",
    plans_by_key: Mapping[tuple[str, str], OpPlan],
    bootstrap_dirs: Mapping[str, str],
) -> list[SerializabilityViolation]:
    """Diff the cluster's durable state against the serial replay."""
    ordered = committed_plans_in_commit_order(cluster, plans_by_key)
    return diff_against_serial(cluster, ordered, bootstrap_dirs)


def diff_against_serial(
    cluster: "Cluster",
    ordered_plans: Iterable[OpPlan],
    bootstrap_dirs: Mapping[str, str],
) -> list[SerializabilityViolation]:
    """Diff the cluster's durable state against a serial replay of
    ``ordered_plans`` (an explicit serialisation order).

    The campaign checker calls this directly so it can extend the
    reply-order history with recovery-committed transactions — commits
    driven home by log probing after a crash, which produce durable
    effects but never reach the client as an outcome record.
    """
    try:
        replayed = replay_serial(ordered_plans, bootstrap_dirs)
    except UpdateError as exc:
        return [
            SerializabilityViolation(
                node="*", kind="no-serial-history", detail=str(exc)
            )
        ]

    violations: list[SerializabilityViolation] = []
    nodes = set(replayed) | set(cluster.server_names())
    for node in sorted(nodes):
        actual = cluster.store_of(node)
        expected = replayed.get(node, MetadataStore(node))
        if actual.stable_directories != expected.stable_directories:
            violations.append(
                SerializabilityViolation(
                    node=node,
                    kind="directories-differ",
                    detail=(
                        f"run={actual.stable_directories} "
                        f"serial={expected.stable_directories}"
                    ),
                )
            )
        actual_inodes = {
            ino: (n.ftype, n.nlink) for ino, n in actual.stable_inodes.items()
        }
        expected_inodes = {
            ino: (n.ftype, n.nlink) for ino, n in expected.stable_inodes.items()
        }
        if actual_inodes != expected_inodes:
            violations.append(
                SerializabilityViolation(
                    node=node,
                    kind="inodes-differ",
                    detail=f"run={actual_inodes} serial={expected_inodes}",
                )
            )
    return violations
