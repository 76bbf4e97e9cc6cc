"""One oracle for every net: was this settled run atomic?

:func:`check` runs a fixed list of passes over a settled cluster's
stable images (each read once per call) and the plans submitted to it:

* **invariant** — the §II namespace rules of :mod:`repro.fs.invariants`;
* **atomicity** — each plan's durable effects are all-or-nothing;
* **durability** — a committed outcome has all its effects durable;
* **aborted-residue** — an aborted outcome has none of them durable;
* **serializability** — the durable image equals a serial replay of
  the committed outcomes' plans in reply order (strict 2PL holds every
  lock until the decision), followed by the plans recovery committed
  without a reply, in path order;
* **conflict-cycle** — the lock-grant precedence graph
  (:meth:`~repro.obs.hub.Observability.precedence`, in either hub mode
  that keeps it) is acyclic.

An outcome carries its plan, so outcomes match plans by identity.  A
plan's effects are its ``AddDentry`` and ``CreateInode`` updates: the
nets that call the oracle submit distinct-path CREATEs (batched fan-out
included), which also makes appending the recovered plans a valid
serial extension.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from repro.fs.invariants import Violation, check_invariants
from repro.fs.objects import AddDentry, CreateInode, Inode, UpdateError
from repro.fs.operations import OpPlan
from repro.fs.store import MetadataStore
from repro.locks import find_deadlock_cycle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster

__all__ = ["Violation", "check", "replay_serial"]


class _Snapshot(NamedTuple):
    """One store's stable image, read once; quacks like the store for
    :func:`check_invariants`."""

    node: str
    stable_directories: dict[str, dict[str, int]]
    stable_inodes: dict[int, Inode]


def check(cluster: "Cluster", plans: Iterable[OpPlan]) -> list[Violation]:
    """Every violation in the settled ``cluster``, pass by pass."""
    stores = [cluster.store_of(node) for node in cluster.server_names()]
    images = {s.node: _Snapshot(s.node, s.stable_directories, s.stable_inodes) for s in stores}
    violations = check_invariants(images.values())
    replies = sorted((o for o in cluster.outcomes if o.committed), key=lambda o: o.replied_at)
    acked = {id(o.plan) for o in replies}
    refused = {id(o.plan) for o in cluster.outcomes if not o.committed}
    recovered: list[OpPlan] = []
    for plan in plans:
        present, total = _presence(images, plan)
        durable = f"{present}/{total} effects durable"
        if 0 < present < total:
            violations.append(Violation("atomicity", plan.path, f"{plan.op}: {durable} (torn)"))
        if id(plan) in acked:
            if present < total:
                message = f"{plan.op} acknowledged committed, {durable}"
                violations.append(Violation("durability", plan.path, message))
        elif total and present == total:
            recovered.append(plan)
        if id(plan) in refused and present:
            violations.append(
                Violation("aborted-residue", plan.path, f"{plan.op} answered aborted, {durable}")
            )
    ordered = [o.plan for o in replies if o.plan is not None]
    ordered += sorted(recovered, key=lambda p: p.path)
    violations += _serial_equivalence(images, ordered, cluster.provisioned)
    cycle = find_deadlock_cycle(cluster.obs.precedence())
    if cycle is not None:
        violations.append(
            Violation("conflict-cycle", "*", f"lock-precedence cycle between transactions {cycle}")
        )
    return violations


def _presence(images: Mapping[str, _Snapshot], plan: OpPlan) -> tuple[int, int]:
    """``(present, total)`` over the plan's durable effects."""
    present = total = 0
    for node, updates in plan.updates.items():
        image = images[node]
        for update in updates:
            if isinstance(update, AddDentry):
                total += 1
                entries = image.stable_directories.get(update.dir_path, {})
                present += entries.get(update.name) == update.ino
            elif isinstance(update, CreateInode):
                total += 1
                present += update.ino in image.stable_inodes
    return present, total


def replay_serial(
    plans: Iterable[OpPlan], provisioned: Mapping[str, str]
) -> dict[str, MetadataStore]:
    """Apply ``plans`` one after another on fresh stores holding the
    ``provisioned`` directories (path -> owner): the whole history as
    one transaction per store, committed at the end.

    Raises :class:`UpdateError` when the history is inconsistent: no
    serial execution could have produced it.
    """
    stores: dict[str, MetadataStore] = {}
    for path, node in provisioned.items():
        stores.setdefault(node, MetadataStore(node)).mkdir(path)
    for plan in plans:
        for node, updates in plan.updates.items():
            store = stores.setdefault(node, MetadataStore(node))
            for update in updates:
                store.apply(0, update)
    for store in stores.values():
        store.commit_durable(0)
    return stores


def _serial_equivalence(
    images: Mapping[str, _Snapshot], ordered: list[OpPlan], provisioned: Mapping[str, str]
) -> list[Violation]:
    try:
        replayed = replay_serial(ordered, provisioned)
    except UpdateError as exc:
        return [Violation("serializability", "*", f"no-serial-history: {exc}")]
    violations = []
    for node in sorted(set(images) | set(replayed)):
        actual = images.get(node) or _Snapshot(node, {}, {})
        expected = replayed.get(node) or MetadataStore(node)
        run, serial = actual.stable_directories, expected.stable_directories
        if run != serial:
            violations.append(
                Violation("serializability", node, f"directories-differ: run={run} serial={serial}")
            )
        run_inodes = {ino: (n.ftype, n.nlink) for ino, n in actual.stable_inodes.items()}
        serial_inodes = {ino: (n.ftype, n.nlink) for ino, n in expected.stable_inodes.items()}
        if run_inodes != serial_inodes:
            message = f"inodes-differ: run={run_inodes} serial={serial_inodes}"
            violations.append(Violation("serializability", node, message))
    return violations
