"""The commit-protocol plug-in registry.

A protocol plugs into the harness by registering a
:class:`ProtocolSpec` — a descriptor bundling the engine class with
everything the surrounding tooling needs to enumerate it:

* the **log-record vocabulary** the engine writes (``repro protocols``
  output; checked by the conformance battery, which runs the engine and
  requires the kinds its logs append to equal the declared ones);
* **capability flags** the cluster assembly reads (``shared_log``
  provisions one central device with remote log reads, stored
  ``needs_acceptors`` spawns the 2F+1 acceptor nodes Paxos Commit
  votes through, ``logless`` spawns one backup replica per MDS for
  synchronous replication instead of a WAL);
* the **paper-expected Figure-6 point** where one exists (the four
  protocols the paper measures);
* the expected **Table-I cost row** (forced/lazy log writes and
  message counts) used by the analytical table and asserted against
  the span-folded measurement.

Everything that used to hardwire its own default-protocol tuple — the
figure6/sweeps/scaling/abort-rate grids, Table-I rendering, the
conformance suite, the golden-trace suite, the CLI — now enumerates
:func:`specs` / :func:`default_protocols`, so a newly registered
protocol appears in every grid with zero harness edits.

``register_protocol`` keeps its historical class-decorator form for
minimal registrations (tests register toy protocols that way); rich
registrations pass a full :class:`ProtocolSpec`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Type, Union, overload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import Protocol

# -- capability flags ---------------------------------------------------------

#: Every log lives on one central device and may be read remotely
#: after fencing (the 1PC storage architecture, §III).
CAP_SHARED_LOG = "shared_log"
#: The cluster spawns 2F+1 acceptor nodes the protocol votes through
#: (Paxos Commit).
CAP_NEEDS_ACCEPTORS = "needs_acceptors"
#: The protocol writes no WAL; the cluster spawns one backup replica
#: per MDS for synchronous replication (logless 1PC).
CAP_LOGLESS = "logless"

KNOWN_CAPABILITIES = frozenset({CAP_SHARED_LOG, CAP_NEEDS_ACCEPTORS, CAP_LOGLESS})


@dataclass(frozen=True)
class ProtocolSpec:
    """Plug-in descriptor for one atomic commitment protocol."""

    #: Registry name ("PrN", "1PC", ...); must match ``engine.name``.
    name: str
    #: The coordinator/participant engine class.
    engine: Type["Protocol"]
    #: One-line description for listings.
    summary: str = ""
    #: Log-record kinds the engine writes (empty for logless designs);
    #: checked by the conformance battery.
    log_records: Tuple[str, ...] = ()
    #: Capability flags the cluster assembly honours.
    capabilities: frozenset = frozenset()
    #: Paper-expected Figure-6 throughput (tx/s), when the paper
    #: measures this protocol; None otherwise.
    paper_figure6: Optional[float] = None
    #: Expected Table-I row as ``(sync_total, async_total,
    #: sync_critical, async_critical, msgs_total, msgs_critical)``;
    #: None when no analytical row is claimed.
    table1_row: Optional[Tuple[int, int, int, int, int, int]] = None
    #: Bibliographic origin of the protocol.
    citation: str = ""
    #: Explicit position in grid enumeration order; unordered specs
    #: come after all ordered ones, in registration order.
    order: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("ProtocolSpec requires a name")
        engine_name = getattr(self.engine, "name", None)
        if engine_name != self.name:
            raise ValueError(
                f"spec name {self.name!r} does not match engine name {engine_name!r}"
            )
        unknown = set(self.capabilities) - KNOWN_CAPABILITIES
        if unknown:
            raise ValueError(f"unknown capability flags {sorted(unknown)}")
        if self.table1_row is not None and len(self.table1_row) != 6:
            raise ValueError("table1_row must have six entries")

    def describe(self) -> dict:
        """JSON-friendly summary (``repro protocols --json``)."""
        return {
            "name": self.name,
            "engine": self.engine.__name__,
            "summary": self.summary,
            "log_records": list(self.log_records),
            "capabilities": sorted(self.capabilities),
            "paper_figure6": self.paper_figure6,
            "table1_row": list(self.table1_row) if self.table1_row else None,
            "citation": self.citation,
            "max_workers": self.engine.max_workers,
        }


_SPECS: dict[str, ProtocolSpec] = {}
_SEQ: dict[str, int] = {}
_counter = itertools.count()


def _derive_spec(cls: Type["Protocol"]) -> ProtocolSpec:
    doc = (cls.__doc__ or "").strip().splitlines()
    return ProtocolSpec(
        name=cls.name,
        engine=cls,
        summary=doc[0].strip() if doc else "",
    )


@overload
def register_protocol(obj: ProtocolSpec) -> ProtocolSpec: ...


@overload
def register_protocol(obj: Type["Protocol"]) -> Type["Protocol"]: ...


def register_protocol(
    obj: Union[ProtocolSpec, Type["Protocol"]],
) -> Union[ProtocolSpec, Type["Protocol"]]:
    """Register a protocol; usable as a class decorator or with a spec.

    The decorator form derives a minimal spec (name + engine +
    docstring summary); pass a full :class:`ProtocolSpec` to declare
    log vocabulary, capabilities and reference points.
    """
    if isinstance(obj, ProtocolSpec):
        spec = obj
    else:
        if not getattr(obj, "name", None):
            raise ValueError(f"{obj.__name__} has no protocol name")
        spec = _derive_spec(obj)
    _SPECS[spec.name] = spec
    _SEQ.setdefault(spec.name, next(_counter))
    return obj


def unregister(name: str) -> ProtocolSpec:
    """Remove a protocol from the registry; returns its spec."""
    if name not in _SPECS:
        raise KeyError(f"unknown protocol {name!r}; have {sorted(_SPECS)}")
    spec = _SPECS.pop(name)
    _SEQ.pop(name, None)
    return spec


class temporary_protocol:  # a context manager, named as it is called
    """Register ``spec`` for the duration of a ``with`` block.

    The toy-protocol harness tests use this so a failing assertion
    never leaks a registration into other tests.
    """

    def __init__(self, spec: ProtocolSpec) -> None:
        self.spec = spec

    def __enter__(self) -> ProtocolSpec:
        return register_protocol(self.spec)

    def __exit__(self, *_exc: object) -> None:
        unregister(self.spec.name)


def get_spec(name: str) -> ProtocolSpec:
    """The spec registered under ``name``."""
    if name not in _SPECS:
        raise KeyError(f"unknown protocol {name!r}; have {sorted(_SPECS)}")
    return _SPECS[name]


def specs() -> Tuple[ProtocolSpec, ...]:
    """All registered specs in grid enumeration order.

    Explicitly ordered specs come first (by their ``order``), then
    unordered ones in registration order — so the paper's four
    protocols always lead and a toy registration appends.
    """
    def key(spec: ProtocolSpec) -> tuple:
        if spec.order is not None:
            return (0, spec.order, _SEQ[spec.name])
        return (1, 0, _SEQ[spec.name])

    return tuple(sorted(_SPECS.values(), key=key))


def default_protocols() -> Tuple[str, ...]:
    """Registered protocol names in grid enumeration order.

    The single source every experiment grid enumerates; replaces the
    hardwired per-harness protocol tuples.
    """
    return tuple(spec.name for spec in specs())


def fanout_capable(min_workers: int = 2) -> Tuple[str, ...]:
    """Registered protocols that accept ``min_workers`` workers per
    transaction (``engine.max_workers`` is ``None`` or large enough),
    in grid enumeration order."""
    names: list[str] = []
    for spec in specs():
        cap = spec.engine.max_workers
        if cap is None or cap >= min_workers:
            names.append(spec.name)
    return tuple(names)


def reject_fanout(name: str, max_workers: int, n_workers: int) -> str:
    """Rejection message for a transaction too wide for ``name``.

    Names the protocol and suggests the registered alternatives that
    can actually run the transaction — either directly or as the
    cluster's ``fallback=`` for wide operations.
    """
    alternatives = ", ".join(
        n for n in fanout_capable(n_workers) if n != name
    ) or "none registered"
    plural = "worker" if max_workers == 1 else "workers"
    return (
        f"{name} handles transactions with at most {max_workers} {plural}, "
        f"got {n_workers}; fan-out-capable protocols: {alternatives} "
        f"(run one directly or configure it as the cluster fallback= "
        f"for wide operations)"
    )
