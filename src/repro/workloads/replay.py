"""Trace replay: drive the cluster from a recorded operation list.

Real metadata studies replay application traces (the paper cites the
I/O-characterisation literature, [9]).  An operation trace here is a
list of timestamped namespace operations::

    [
        {"t": 0.000, "op": "mkdir",  "path": "/dir1/run"},
        {"t": 0.001, "op": "create", "path": "/dir1/run/rank0.ckpt"},
        {"t": 0.002, "op": "rename", "path": "/dir1/run/rank0.ckpt",
         "dst": "/dir1/run/rank0.done"},
        ...
    ]

``run_replay`` submits each operation at its virtual timestamp
(open-loop by default; ``closed_loop=True`` instead waits for each
reply before issuing the next, preserving order dependencies), and
returns the usual :class:`~repro.workloads.cell.Measurement`.
``load_ops`` / ``save_ops`` read and write the JSON form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional, Sequence, Union

from repro.config import SimulationParams
from repro.mds.scenarios import distributed_create_cluster
from repro.workloads.cell import SETTLE, Measurement, measure

VALID_OPS = frozenset({"mkdir", "create", "delete", "rmdir", "rename", "link", "stat"})

#: Read-only operations: served by one MDS, no transaction, no
#: :class:`~repro.protocols.base.TxnOutcome` — accounted separately.
READ_OPS = frozenset({"stat"})


def validate_ops(ops: Sequence[dict]) -> None:
    """Sanity-check an operation trace; raises ValueError."""
    last_t = float("-inf")
    for i, op in enumerate(ops):
        if op.get("op") not in VALID_OPS:
            raise ValueError(f"op[{i}]: unknown operation {op.get('op')!r}")
        if "path" not in op:
            raise ValueError(f"op[{i}]: missing path")
        t = float(op.get("t", 0.0))
        if t < last_t:
            raise ValueError(f"op[{i}]: timestamps must be non-decreasing")
        last_t = t
        if op["op"] in ("rename", "link") and "dst" not in op:
            raise ValueError(f"op[{i}]: {op['op']} requires 'dst'")


def load_ops(source: Union[str, Path, IO[str]]) -> list[dict]:
    """Load an operation trace from JSON (a list of dicts)."""
    own = isinstance(source, (str, Path))
    stream: IO[str] = open(source) if own else source  # type: ignore[arg-type]
    try:
        ops = json.load(stream)
    finally:
        if own:
            stream.close()
    validate_ops(ops)
    return ops


def save_ops(ops: Sequence[dict], target: Union[str, Path, IO[str]]) -> None:
    """Write an operation trace as JSON."""
    validate_ops(ops)
    own = isinstance(target, (str, Path))
    stream: IO[str] = open(target, "w") if own else target  # type: ignore[arg-type]
    try:
        json.dump(list(ops), stream, indent=1, sort_keys=True)
    finally:
        if own:
            stream.close()


def run_replay(
    protocol: str,
    ops: Sequence[dict],
    params: Optional[SimulationParams] = None,
    closed_loop: bool = False,
    op_timeout: float = 30.0,
) -> Measurement:
    """Replay ``ops`` against a fresh two-MDS cluster.

    Open loop submits at each operation's timestamp; closed loop waits
    for every reply (timestamps become minimum start times).  Planning
    failures (e.g. deleting a path whose create aborted) are skipped,
    as a replaying client would.
    """
    validate_ops(ops)
    cluster, client = distributed_create_cluster(protocol, params=params, trace=False)
    sim = cluster.sim
    skipped = {"n": 0}
    stats = {"n": 0}

    def plan_for(op):
        kind = op["op"]
        try:
            if kind == "mkdir":
                return client.plan_mkdir(op["path"])
            if kind == "create":
                return client.plan_create(op["path"])
            if kind == "delete":
                return client.plan_delete(op["path"])
            if kind == "rmdir":
                return client.plan_rmdir(op["path"])
            if kind == "link":
                return client.plan_link(op["path"], op["dst"])
            return client.plan_rename(op["path"], op["dst"], touch_inode=False)
        except (FileNotFoundError, ValueError):
            skipped["n"] += 1
            return None

    def do_stat(path):
        try:
            yield from client.stat(path, timeout=op_timeout)
        except Exception:
            pass

    def driver(sim):
        for op in ops:
            t = float(op.get("t", 0.0))
            if t > sim.now:
                yield sim.timeout(t - sim.now)
            if op["op"] in READ_OPS:
                # Metadata read: no transaction, no outcome — run it
                # inline when closed-loop, fire-and-forget otherwise.
                stats["n"] += 1
                if closed_loop:
                    yield from do_stat(op["path"])
                else:
                    sim.process(do_stat(op["path"]), name="replay-stat")
                continue
            plan = plan_for(op)
            if plan is None:
                continue
            if closed_loop:
                try:
                    yield from client.run(plan, timeout=op_timeout)
                except Exception:
                    skipped["n"] += 1
            else:
                client.submit(plan)

    start = sim.now
    proc = sim.process(driver(sim), name="replay")
    sim.run(until=proc)
    # Not the shared ``drain``: an open-loop replay tolerates operations
    # that are never answered (their replies are simply missing from
    # the measurement), so running out of events or patience here ends
    # the wait instead of failing the cell.
    cluster.run_until_answered(len(ops) - skipped["n"] - stats["n"], 600.0)
    sim.run(until=sim.now + SETTLE)

    if not cluster.outcomes:
        raise RuntimeError("replay produced no outcomes")
    return measure(cluster, cluster.outcomes, start)


def synthetic_checkpoint_trace(
    ranks: int = 16, period: float = 0.05, rounds: int = 2
) -> list[dict]:
    """An HPC checkpoint/rotate trace: every ``period`` seconds each
    rank creates a checkpoint and renames it over its previous one."""
    ops: list[dict] = [{"t": 0.0, "op": "mkdir", "path": "/dir1/ckpt"}]
    t = 1e-3
    for round_no in range(rounds):
        for rank in range(ranks):
            path = f"/dir1/ckpt/rank{rank}.r{round_no}"
            ops.append({"t": t, "op": "create", "path": path})
        t += period
        if round_no > 0:
            for rank in range(ranks):
                old = f"/dir1/ckpt/rank{rank}.r{round_no - 1}"
                ops.append({"t": t, "op": "delete", "path": old})
            t += period
    return ops
