"""PROTO — registry-driven protocol/spec conformance rules.

PRs 6-7 made commit protocols pluggable: any engine registered with
:func:`repro.protocols.registry.register_protocol` (including
``temporary_protocol`` plug-ins live at lint time) joins every grid
and the CI conformance matrix.  The spec each engine registers is a
*contract* — its ``log_records`` vocabulary is what Table I counts,
what ``repro protocols`` documents and what recovery reasons over.
These rules verify the contract statically against the engine's
actual code, resolved over its live method-resolution order:

* **PROTO001** — every record kind the engine can append is declared;
* **PROTO002** — every declared durable kind is consulted somewhere
  on the recovery path (a record recovery ignores is either dead
  weight or a forgotten §II-C case);
* **PROTO003** — a ``logless`` engine appends nothing, ever (the
  entire point of the design it claims).

Engines whose source is outside the linted file set (third-party
plug-ins linted standalone) are skipped, not failed.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.flow.project import ProjectContext
from repro.lint.flow.records import EngineRecordUsage, extract_engine_records
from repro.lint.registry import ProjectRule, register
from repro.protocols.registry import CAP_LOGLESS, specs


def _engine_usages(
    project: ProjectContext,
) -> Iterator[tuple[str, frozenset, bool, EngineRecordUsage]]:
    """``(name, declared, logless, usage)`` per analysable engine."""
    for spec in specs():
        usage = extract_engine_records(
            project, spec.engine, record_sources=spec.record_sources
        )
        if usage is None:
            continue
        yield (
            spec.name,
            spec.declared_records(),
            CAP_LOGLESS in spec.capabilities,
            usage,
        )


def _class_finding(
    usage: EngineRecordUsage, rule_id: str, message: str
) -> Finding:
    return usage.engine_class.ctx.finding(usage.engine_class.node, rule_id, message)


@register
class UndeclaredRecordRule(ProjectRule):
    id = "PROTO001"
    summary = "engines only append record kinds their ProtocolSpec declares"
    rationale = (
        "The registered log_records vocabulary is the contract Table I, "
        "`repro protocols` and the recovery argument are built on; an "
        "append outside it means the spec lies about the engine's "
        "durable footprint."
    )
    good_example = (
        'log_records=("STARTED", "COMMITTED")\n'
        "...\n"
        "yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn_id))"
    )
    bad_example = (
        'log_records=("STARTED", "COMMITTED")\n'
        "...\n"
        "yield self.wal.force(self.state_rec(RecordKind.PREPARED, txn_id))"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for name, declared, logless, usage in _engine_usages(project):
            if logless:
                # Any append at all is PROTO003's (stronger) finding.
                continue
            for kind in sorted(usage.emitted - declared):
                site = self._first_site(usage, kind)
                if site is None:
                    continue
                ctx = project.files.get(site.path)
                if ctx is None:
                    continue
                yield Finding(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    rule=self.id,
                    message=(
                        f"protocol {name!r} appends RecordKind.{kind} in "
                        f"{site.method!r} but its ProtocolSpec.log_records "
                        "does not declare it"
                    ),
                )

    @staticmethod
    def _first_site(usage: EngineRecordUsage, kind: str) -> Optional[object]:
        sites = usage.sites_for(kind)
        return sites[0] if sites else None


@register
class UnhandledRecordRule(ProjectRule):
    id = "PROTO002"
    summary = "every declared durable record is consulted by the recovery path"
    rationale = (
        "§II-C enumerates recovery by record kind: a declared durable "
        "record the recover() closure never references is either dead "
        "vocabulary or a crash state the engine forgot to handle."
    )
    good_example = (
        "def recover(self):\n"
        "    state = self.wal.last_state(txn_id)\n"
        "    if state == RecordKind.COMMITTED: ...\n"
        "    elif state == RecordKind.ABORTED: ..."
    )
    bad_example = (
        '# spec declares ("...", "ABORTED") but recover() only checks:\n'
        "if state == RecordKind.COMMITTED: ..."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for name, declared, logless, usage in _engine_usages(project):
            if logless:
                continue
            for kind in sorted(declared - usage.recovery_refs):
                yield _class_finding(
                    usage,
                    self.id,
                    f"protocol {name!r} declares durable record "
                    f"RecordKind.{kind} but its recovery path never "
                    "consults it (§II-C: recovery is enumerated by "
                    "record kind)",
                )


@register
class LoglessAppendRule(ProjectRule):
    id = "PROTO003"
    summary = "logless engines never append to the write-ahead log"
    rationale = (
        "An engine registered with the `logless` capability claims the "
        "Zhu et al. design point — durability from replication, zero "
        "log writes; any reachable WAL append falsifies the claim and "
        "every Table-I/Figure-6 number derived from it."
    )
    good_example = "ok = yield from self._replicate(txn_id, 'commit', data, inbox)"
    bad_example = (
        "# in an engine whose spec has CAP_LOGLESS:\n"
        "yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn_id))"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for name, _declared, logless, usage in _engine_usages(project):
            if not logless:
                continue
            for site in usage.append_sites:
                yield Finding(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    rule=self.id,
                    message=(
                        f"protocol {name!r} is registered logless but "
                        f"{site.method!r} appends to the WAL — logless "
                        "engines must get durability from replication, "
                        "not log writes"
                    ),
                )
