"""Run specifications for the parallel experiment executor.

A :class:`RunSpec` is the declarative unit of work of the executor: one
``(kind, protocol, SimulationParams, seed)`` cell of an experiment
grid.  Specs are plain frozen dataclasses so they pickle cleanly across
process boundaries, and every spec has a stable *identity* — a
canonical JSON encoding of all its fields — from which the per-run
random seed is derived.  Deriving the seed from the spec (instead of,
say, a worker-local counter) is what makes a parallel sweep
bit-identical to a serial one: the seed depends only on *what* is run,
never on *where* or *in which order*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Optional, Union

from repro.analysis.metrics import LatencyStats
from repro.config import (
    ComputeParams,
    FailureParams,
    NetworkParams,
    SimulationParams,
    StorageParams,
)
from repro.faults.triggers import NUMBER, ScheduleFormatError, read_fields
from repro.workloads.cell import TRACE

#: The swept x-value a spec represents (network latency, burst size,
#: abort rate, pair count...).  Purely a label: the physics of the run
#: are fully encoded in ``params`` and the spec's own fields.
Point = Union[float, int, str, None]


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid.

    ``kind`` selects the runner (see :mod:`repro.exec.runners`):

    * ``"burst"`` — the §IV simultaneous-submission workload,
    * ``"abort_burst"`` — burst with a fraction of refused votes,
    * ``"scaling"`` — striped multi-pair cluster throughput,
    * ``"fanout"`` — hot-directory batches spanning ``fanout`` worker
      shards of a ``n_shards``-wide sharded namespace,
    * ``"campaign"`` — one seeded fault schedule (``campaign``) run and
      checked into a verdict,
    * ``"composite"`` — the mdtest-like mixed trace (``composite``)
      over independent shard groups.
    """

    kind: str
    protocol: str
    #: Burst size for burst kinds; operations per directory for scaling;
    #: total files created for fanout.
    n: int = 100
    op: str = "create"
    abort_rate: float = 0.0
    n_pairs: int = 1
    #: Base seed; the effective simulation seed is derived from the
    #: whole spec (see :func:`derive_seed`), so two specs differing in
    #: any field get independent random streams.
    seed: int = 0
    point: Point = None
    params: Optional[SimulationParams] = None
    #: The hub mode of the run, ``"off"`` or ``"full"`` (its document's
    #: no key and ``true``, read from ``False`` / ``True`` too); every
    #: kind that keeps its cluster honours it, and a campaign cell runs
    #: off in ``"attribute"`` mode.  Default :data:`repro.workloads.cell.TRACE`.
    trace: str = TRACE
    #: Workers per transaction for the fanout kind; ``None`` elsewhere
    #: (the field enters the identity only when set, so every pre-fanout
    #: baseline and derived seed is untouched).
    fanout: Optional[int] = None
    #: Worker shards in the sharded namespace (fanout kind); defaults
    #: to ``fanout`` when unset.
    n_shards: Optional[int] = None
    #: Canonical-JSON campaign schedule (campaign kind); ``None``
    #: elsewhere.  Stored as the canonical string (not a dict) so the
    #: spec stays hashable and the identity is byte-stable.
    campaign: Optional[str] = None
    #: Canonical-JSON composite-workload config (composite kind);
    #: ``None`` elsewhere.  Same canonical-string discipline as
    #: ``campaign``: the workload shape is part of the cell identity.
    composite: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace.__class__ is bool:  # the document's spelling
            object.__setattr__(self, "trace", _TRACES[self.trace])
        if self.trace not in _TRACES:
            raise TypeError(f"a run spec's trace is one of {_TRACES}, not {self.trace!r}")
        if not self.kind:
            raise ValueError("kind must be non-empty")
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0.0 <= self.abort_rate < 1.0:
            raise ValueError(f"abort_rate must be in [0, 1), got {self.abort_rate}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.n_shards is not None:
            if self.n_shards < 1:
                raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
            if self.fanout is not None and self.fanout > self.n_shards:
                raise ValueError(
                    f"fanout {self.fanout} cannot exceed n_shards {self.n_shards}"
                )
        if self.kind == "fanout" and self.fanout is None:
            raise ValueError("fanout kind requires the fanout field")
        if self.kind == "campaign" and self.campaign is None:
            raise ValueError("campaign kind requires the campaign field")
        if self.kind == "composite" and self.composite is None:
            raise ValueError("composite kind requires the composite field")

    @property
    def effective_params(self) -> SimulationParams:
        """The spec's parameters, defaulted to the paper's §IV values."""
        return self.params or SimulationParams.paper_defaults()

    def seeded_params(self) -> SimulationParams:
        """``effective_params`` with the derived per-spec seed applied."""
        return replace(self.effective_params, seed=derive_seed(self))

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data form (used for identity and JSON)."""
        doc = {
            "kind": self.kind,
            "protocol": self.protocol,
            "n": self.n,
            "op": self.op,
            "abort_rate": self.abort_rate,
            "n_pairs": self.n_pairs,
            "seed": self.seed,
            "point": self.point,
            "params": asdict(self.effective_params),
        }
        # Tracing is observational only — it must not perturb the
        # derived seed (and with it every committed golden), so the
        # field enters the identity only when actually enabled.
        if self.trace == "full":
            doc["trace"] = True
        # Same discipline for the fanout axes: absent unless set, so
        # pre-fanout spec identities (seeds, goldens) are byte-for-byte
        # what they always were.
        if self.fanout is not None:
            doc["fanout"] = self.fanout
        if self.n_shards is not None:
            doc["n_shards"] = self.n_shards
        if self.campaign is not None:
            doc["campaign"] = self.campaign
        if self.composite is not None:
            doc["composite"] = self.composite
        return doc

    @staticmethod
    def from_dict(doc: Any) -> "RunSpec":
        """Exact inverse of :meth:`to_dict` (the round trip preserves
        the identity and with it the derived seed); any other key, a
        missing one or a value of another type is a
        :class:`~repro.faults.ScheduleFormatError` naming the field
        (``spec.fanuot: unknown field``)."""
        read_fields(
            doc,
            "spec",
            {"kind": str, "protocol": str, "n": int, "op": str, "abort_rate": NUMBER,
             "n_pairs": int, "seed": int, "point": (*NUMBER, str, type(None)), "params": dict},
            {"trace": bool, "fanout": int, "n_shards": int, "campaign": str, "composite": str},
        )
        params = doc["params"]
        read_fields(params, "spec.params", {**dict.fromkeys(_PARAM_SECTIONS, dict), "seed": int})
        for name, cls in _PARAM_SECTIONS.items():
            types = {f.name: _PARAM_TYPES[f.type] for f in fields(cls)}
            read_fields(params[name], f"spec.params.{name}", types)
        try:
            sections = {name: cls(**params[name]) for name, cls in _PARAM_SECTIONS.items()}
            return RunSpec(**{**doc, "params": SimulationParams(**sections, seed=params["seed"])})
        except ValueError as err:
            raise ScheduleFormatError(f"spec: {err}") from None

    def identity(self) -> str:
        """Canonical JSON identity — stable across processes and runs."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """Short human-readable label for progress lines."""
        bits = [self.kind, self.protocol, f"n={self.n}"]
        if self.kind == "abort_burst":
            bits.append(f"abort={self.abort_rate:g}")
        if self.kind == "scaling":
            bits.append(f"pairs={self.n_pairs}")
        if self.kind == "fanout":
            bits.append(f"k={self.fanout}")
            if self.n_shards is not None:
                bits.append(f"shards={self.n_shards}")
        if self.kind == "campaign":
            bits.append(f"seed={self.seed}")
        if self.kind == "composite" and self.composite is not None:
            cfg = json.loads(self.composite)
            bits.append(f"ops={cfg['ops']}")
            bits.append(f"groups={cfg['groups']}")
        if self.point is not None:
            bits.append(f"point={self.point}")
        return " ".join(bits)


#: The hub modes a spec holds, indexed by its document's ``trace``.
_TRACES = ("off", "full")

#: ``params`` section -> its class; a field's annotation -> the JSON
#: class(es) :meth:`RunSpec.from_dict` accepts for it.
_PARAM_SECTIONS = {
    "network": NetworkParams,
    "storage": StorageParams,
    "compute": ComputeParams,
    "failure": FailureParams,
}
_PARAM_TYPES = {"float": NUMBER, "int": int, "bool": bool}


def derive_seed(spec: RunSpec) -> int:
    """A 63-bit seed computed from the spec's canonical identity.

    Stable across processes, Python versions and worker scheduling —
    the cornerstone of parallel/serial bit-identity.
    """
    digest = hashlib.sha256(spec.identity().encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class CellResult:
    """Plain-data outcome of one executed spec.

    Everything here pickles across the process pool; ``payload``
    optionally carries the runner's live result (the
    :class:`~repro.workloads.cell.Measurement` with its cluster) and
    is excluded from the JSON serialisation.
    """

    spec: RunSpec
    derived_seed: int
    committed: int
    aborted: int
    makespan: float
    throughput: float
    latency: Optional[LatencyStats] = None
    forced_writes: int = 0
    lazy_writes: int = 0
    #: Metrics-registry snapshot of the run (trace-enabled runs only).
    metrics: Optional[dict[str, Any]] = None
    #: Structured campaign verdict (campaign kind only): the atomicity /
    #: serial-equivalence check results for the run.
    verdict: Optional[dict[str, Any]] = None
    #: Runner-specific extras (composite kind: skipped / reads /
    #: groups / events / read latency).  Key-presence discipline: the
    #: field serialises only when set, so every pre-existing cell
    #: document is byte-for-byte unchanged.
    detail: Optional[dict[str, Any]] = None
    payload: Optional[Any] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the cell schema of a sweep-results document)."""
        latency = None
        if self.latency is not None:
            latency = {
                "count": self.latency.count,
                "mean": self.latency.mean,
                "min": self.latency.minimum,
                "max": self.latency.maximum,
                "p50": self.latency.p50,
                "p95": self.latency.p95,
                "p99": self.latency.p99,
            }
            # Historical latency docs have no "mode" key; it appears
            # only for sketch-mode (million-transaction) summaries.
            mode = getattr(self.latency, "mode", "exact")
            if mode != "exact":
                latency["mode"] = mode
        doc = {
            "spec": self.spec.to_dict(),
            "derived_seed": self.derived_seed,
            "committed": self.committed,
            "aborted": self.aborted,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency": latency,
            "forced_writes": self.forced_writes,
            "lazy_writes": self.lazy_writes,
        }
        # Only trace-enabled cells carry metrics; keeping the key out
        # otherwise leaves the committed golden documents unchanged.
        if self.metrics is not None:
            doc["metrics"] = self.metrics
        # Same key-presence discipline for campaign verdicts.
        if self.verdict is not None:
            doc["verdict"] = self.verdict
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc
