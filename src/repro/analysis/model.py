"""Analytical throughput and latency model.

A closed-form companion to the simulation: for the Figure 6 workload
(deep burst of distributed creates through one directory) the steady-
state cycle per transaction is governed by the directory lock-hold path
at the coordinator, with the per-node disk demand as a lower bound.

Per-transaction lock-hold path (after the STARTED record, which is
written before the lock is taken and therefore pipelines with earlier
transactions):

* PrN / PrC:  request round trip + vote round trip + worker prepare
  write + coordinator commit write
* EP:         single piggybacked round trip + worker prepare write +
  coordinator commit write
* 1PC:        single round trip + the worker's combined
  updates+commit write  (the coordinator's own write is off the path)

Each message on the path also pays the per-message dispatch cost at
its receiver.  The per-node disk demand per transaction adds the
STARTED (and redo/ENDED) bytes that the lock path hides.

The model is deliberately simple — no queueing-theory corrections —
and is validated against the simulator in
``tests/analysis/test_model.py`` (within 15 % for every protocol at
the default calibration).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SimulationParams


@dataclass(frozen=True)
class ProtocolPrediction:
    """Analytical per-transaction costs for one protocol."""

    protocol: str
    #: Directory lock-hold time per transaction (seconds).
    lock_hold: float
    #: Coordinator-side device demand per transaction (seconds).
    coordinator_disk: float
    #: Worker-side device demand per transaction (seconds).
    worker_disk: float
    #: Client-perceived latency of an uncontended transaction.
    solo_latency: float

    @property
    def cycle(self) -> float:
        """Steady-state time per transaction in a deep burst."""
        return max(self.lock_hold, self.coordinator_disk, self.worker_disk)

    @property
    def throughput(self) -> float:
        return 1.0 / self.cycle


def predict(protocol: str, params: SimulationParams | None = None) -> ProtocolPrediction:
    """Closed-form prediction for ``protocol`` under ``params``."""
    p = params or SimulationParams.paper_defaults()
    w = p.storage.write_latency  # bytes -> seconds
    m = p.network.latency
    c = p.compute.msg_processing_latency
    u = p.storage.update_record_size
    s = p.storage.state_record_size
    st = p.storage.start_record_size
    en = p.storage.end_record_size
    rd = p.storage.redo_record_size

    # Building blocks.
    w_started = w(st)
    w_started_redo = w(st + rd)
    w_prepare = w(u + s)  # UPDATES + PREPARED in one force
    w_commit_state = w(s)
    w_commit_full = w(u + s)  # 1PC: UPDATES + COMMITTED in one force
    w_ended = w(en)
    hop = m + c  # one message delivered and dispatched

    # In the deep-burst pipeline, transaction N+1's worker prepare
    # queues behind transaction N's worker commit record on the worker
    # device; the message hops overlap with that write.  The extra
    # round trips of PrN/PrC are exposed only when they exceed it.
    # Message-heavy protocols additionally queue at the coordinator's
    # single-threaded dispatcher: each received message beyond the two
    # every protocol needs (client request + the worker's reply) costs
    # one dispatch slot on the cycle.
    if protocol in ("PrN", "PrC"):
        lock_hold = (
            2 * hop
            + max(2 * hop, w_commit_state)  # extra round trips vs pipeline
            + w_prepare
            + w_commit_state
            + (2 if protocol == "PrN" else 1) * c  # PREPARED (+ACK) dispatch
        )
        coord_disk = w_started + w_prepare + w_commit_state
        worker_disk = w_prepare + w_commit_state
        # Solo latency: STARTED, execution round, vote round, worker
        # prepare (coordinator's overlaps), COMMITTED; PrN additionally
        # waits for COMMIT/ACK (worker commit inside).
        solo = w_started + 4 * hop + w_prepare + w_commit_state
        if protocol == "PrN":
            coord_disk += w_ended
            solo += 2 * hop + w_commit_state
        return ProtocolPrediction(protocol, lock_hold, coord_disk, worker_disk, solo)

    if protocol == "EP":
        lock_hold = 2 * hop + w_commit_state + w_prepare + w_commit_state
        coord_disk = w_started + w_prepare + w_commit_state
        worker_disk = w_prepare + w_commit_state
        solo = w_started + 2 * hop + w_prepare + w_commit_state
        return ProtocolPrediction(protocol, lock_hold, coord_disk, worker_disk, solo)

    if protocol == "1PC":
        lock_hold = 2 * hop + w_commit_full
        coord_disk = w_started_redo + w_commit_full
        worker_disk = w_commit_full + w_ended
        solo = w_started_redo + 2 * hop + w_commit_full
        return ProtocolPrediction(protocol, lock_hold, coord_disk, worker_disk, solo)

    raise ValueError(f"no analytical model for protocol {protocol!r}")


def predict_figure6(
    params: SimulationParams | None = None,
) -> dict[str, ProtocolPrediction]:
    """Predictions for all four protocols."""
    return {name: predict(name, params) for name in ("PrN", "PrC", "EP", "1PC")}
