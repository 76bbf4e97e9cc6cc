"""Operation aggregation — the §VI future-work extension.

    "... the MDS responsible for managing the parent directory can
    aggregate multiple namespace operations in only one big
    transaction, thus reducing the number of messages and log writes
    per block of requests."

:class:`BatchPlanner` merges several compatible operation plans (same
coordinator) into a single plan whose updates are the concatenation of
the members' updates.  The directory is locked once, one STARTED+REDO
record covers the whole batch, and a single commit round finishes all
of the member operations — semantics are unchanged (each member is
still atomic; the batch merely shares the protocol overhead).

The ``batching`` report artifact sweeps the batch size to quantify the
predicted gain.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.fs.operations import OpPlan, UnsupportedOperation


class BatchPlanner:
    """Aggregates operation plans into batches.

    ``max_workers`` caps the number of distinct worker MDSs a batch may
    touch (1 for the 1PC protocol, unlimited for the 2PC family).
    """

    def __init__(self, max_batch: int = 32, max_workers: int | None = 1):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.max_workers = max_workers

    def merge(self, plans: Sequence[OpPlan]) -> OpPlan:
        """Merge ``plans`` into a single batch plan.

        All plans must share a coordinator; update order within each
        node follows plan order, preserving per-operation dependency
        order.
        """
        plans = list(plans)
        if not plans:
            raise ValueError("cannot merge an empty batch")
        if len(plans) == 1:
            return plans[0]
        if len(plans) > self.max_batch:
            raise UnsupportedOperation(
                f"batch of {len(plans)} exceeds max_batch={self.max_batch}"
            )
        coordinator = plans[0].coordinator
        if any(p.coordinator != coordinator for p in plans):
            raise UnsupportedOperation("batched plans must share a coordinator")
        updates: dict[str, list] = {}
        for plan in plans:
            for node, ups in plan.updates.items():
                updates.setdefault(node, []).extend(ups)
        workers = [n for n in updates if n != coordinator]
        if self.max_workers is not None and len(workers) > self.max_workers:
            raise UnsupportedOperation(
                f"batch spans {len(workers)} workers, protocol allows {self.max_workers}"
            )
        return OpPlan(
            op="BATCH",
            path=plans[0].path,
            updates=updates,
            coordinator=coordinator,
            detail={
                "members": [{"op": p.op, "path": p.path, **p.detail} for p in plans],
                "size": len(plans),
            },
        )

    def partition(self, plans: Iterable[OpPlan]) -> list[OpPlan]:
        """Greedily group ``plans`` into mergeable batches.

        Consecutive plans with the same coordinator are merged until
        ``max_batch`` or the worker limit would be exceeded; plans that
        cannot join the current batch start a new one.
        """
        batches: list[OpPlan] = []
        current: list[OpPlan] = []

        def flush():
            if current:
                batches.append(self.merge(list(current)))
                current.clear()

        for plan in plans:
            if not current:
                current.append(plan)
                continue
            candidate = current + [plan]
            if len(candidate) > self.max_batch or plan.coordinator != current[0].coordinator:
                flush()
                current.append(plan)
                continue
            # Insertion-ordered on purpose: a set here would put the
            # batch boundary (and with it dispatch order) at the mercy
            # of PYTHONHASHSEED if anything ever iterates it.
            workers: dict[str, None] = {}
            for p in candidate:
                workers.update(dict.fromkeys(p.workers))
            workers.pop(current[0].coordinator, None)
            if self.max_workers is not None and len(workers) > self.max_workers:
                flush()
            current.append(plan)
        flush()
        return batches
