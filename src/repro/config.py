"""Simulation parameters.

Defaults follow §IV of the paper: computational latency of 1 µs per
object method (read and write), network latency of 100 µs between acp
servers, and a log-device bandwidth of 400 KB/s (the paper's footnote
explains this is the *effective* bandwidth for highly random shared
storage access, folding in seek and rotational latency).

Record sizes are not published by the paper; the defaults below are the
calibration used to reproduce the shape of Figure 6 (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

KB = 1024.0


@dataclass(frozen=True)
class NetworkParams:
    """Point-to-point network model parameters."""

    #: One-way message latency between MDSs (seconds).  Paper: 100 µs.
    latency: float = 100e-6
    #: Optional per-byte serialisation cost (seconds/byte).  The paper
    #: models a pure latency network, so this defaults to zero.
    byte_cost: float = 0.0
    #: Random jitter added on top of ``latency`` (uniform [0, jitter]).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.byte_cost < 0 or self.jitter < 0:
            raise ValueError("network parameters must be non-negative")


@dataclass(frozen=True)
class StorageParams:
    """Log device model parameters.

    Record sizes are the calibration the paper does not publish (they
    are per-object inputs to ACID Sim Tools); the defaults reproduce
    the *shape* of Figure 6 — see EXPERIMENTS.md for the calibration
    notes.  State records (PREPARED/COMMITTED/ABORTED) are padded log
    blocks carrying full transaction context, hence larger than the
    compact per-update command entries.
    """

    #: Sequential-equivalent bandwidth of the log device (bytes/second).
    #: Paper: 400 KB/s (random-access effective bandwidth; the paper's
    #: footnote folds seek and rotational latency into this figure).
    bandwidth: float = 400 * KB
    #: Fixed per-operation overhead (seconds); zero because the paper
    #: folds it into the bandwidth.
    op_overhead: float = 0.0
    #: Bytes one metadata update command occupies in the log.
    update_record_size: float = 845.0
    #: Bytes a vote/decision state record (PREPARED/COMMITTED/ABORTED)
    #: occupies.
    state_record_size: float = 400.0
    #: Bytes of the STARTED record (transaction id + participants).
    start_record_size: float = 64.0
    #: Bytes of the ENDED finalisation record.
    end_record_size: float = 64.0
    #: Bytes of the 1PC redo record (the serialised namespace op).
    redo_record_size: float = 128.0
    #: Service concurrency of the shared SAN device: 0 means each log
    #: partition is striped onto its own spindle set (independent
    #: service, the realistic model for an enterprise array); k > 0
    #: means at most k requests are in service at once on one device.
    san_concurrency: int = 0
    #: Group commit: coalesce queued log appends into one device write
    #: (up to ``group_commit_max_bytes``).  Off by default; the
    #: ``group-commit`` report artifact quantifies the effect.
    group_commit: bool = False
    group_commit_max_bytes: float = 64 * KB

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        sizes = (
            self.op_overhead,
            self.update_record_size,
            self.state_record_size,
            self.start_record_size,
            self.end_record_size,
            self.redo_record_size,
        )
        if min(sizes) < 0:
            raise ValueError("storage parameters must be non-negative")
        if self.san_concurrency < 0:
            raise ValueError("san_concurrency must be >= 0")

    def write_latency(self, nbytes: float) -> float:
        """Service time for writing ``nbytes`` to the device."""
        return self.op_overhead + nbytes / self.bandwidth

    def read_latency(self, nbytes: float) -> float:
        """Service time for reading ``nbytes`` from the device."""
        return self.op_overhead + nbytes / self.bandwidth


@dataclass(frozen=True)
class ComputeParams:
    """Per-object method execution costs."""

    #: Time for one read method on a metadata object (seconds). Paper: 1 µs.
    read_latency: float = 1e-6
    #: Time for one write method on a metadata object (seconds). Paper: 1 µs.
    write_latency: float = 1e-6
    #: CPU time the server's dispatcher spends per received message
    #: (protocol stack + handler dispatch).  Messages are handled
    #: serially per node, so message-heavy protocols pay more under
    #: load.  Calibrated (see EXPERIMENTS.md): this is what separates
    #: EP from PrC in Figure 6 — their log-write costs are identical,
    #: so EP's advantage must come from handling fewer messages.
    msg_processing_latency: float = 380e-6

    def __post_init__(self) -> None:
        if min(self.read_latency, self.write_latency, self.msg_processing_latency) < 0:
            raise ValueError("compute latencies must be non-negative")


@dataclass(frozen=True)
class FailureParams:
    """Failure detection and recovery timing."""

    #: Heartbeat period between MDSs (seconds).
    heartbeat_interval: float = 10e-3
    #: Missed-heartbeat budget before a peer is declared dead.
    heartbeat_misses: int = 3
    #: Protocol-level timeout waiting for a peer reply (seconds).
    reply_timeout: float = 1.0
    #: Timeout for lock acquisition (seconds).  Generous: it exists to
    #: break deadlocks (§II-B), not to bound fair FIFO queueing behind
    #: a deep burst on one directory.
    lock_timeout: float = 30.0
    #: Time for a fencing action (STONITH power cycle / switch
    #: reconfiguration) to take effect (seconds).
    fencing_delay: float = 50e-3
    #: Time for a crashed node to reboot and start recovery (seconds).
    reboot_delay: float = 100e-3

    def __post_init__(self) -> None:
        if min(self.heartbeat_interval, self.reply_timeout, self.lock_timeout) <= 0:
            raise ValueError("timeouts must be positive")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.fencing_delay < 0 or self.reboot_delay < 0:
            raise ValueError("delays must be non-negative")


@dataclass(frozen=True)
class SimulationParams:
    """Bundle of all model parameters plus the root random seed."""

    network: NetworkParams = field(default_factory=NetworkParams)
    storage: StorageParams = field(default_factory=StorageParams)
    compute: ComputeParams = field(default_factory=ComputeParams)
    failure: FailureParams = field(default_factory=FailureParams)
    seed: int = 0

    @staticmethod
    def paper_defaults() -> "SimulationParams":
        """The §IV configuration (1 µs compute, 100 µs net, 400 KB/s log)."""
        return SimulationParams()

    def with_(self, **overrides: Any) -> "SimulationParams":
        """A copy with top-level fields replaced."""
        return replace(self, **overrides)
