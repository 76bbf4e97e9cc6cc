"""RACE001 — stale shared-state writes across DES yield points.

The deterministic kernel (PR 2) interleaves simulation processes only
at yields, so code between yields is atomic — but a value *captured
before* a yield and *written back after* it silently overwrites
whatever another process did in between.  This rule statically finds
that lost-update shape on state written by two or more generator
processes; the happens-before legwork lives in
:mod:`repro.lint.flow.races`.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.flow.project import ProjectContext
from repro.lint.flow.races import find_races
from repro.lint.registry import ProjectRule, register


@register
class StaleSharedWriteRule(ProjectRule):
    id = "RACE001"
    summary = "shared DES state must be re-read after a yield before writing"
    rationale = (
        "Between yields a process is atomic, but a write computed from a "
        "pre-yield snapshot of state that other processes also write "
        "loses their updates — the classic lost-update race the "
        "cooperative kernel makes easy to miss because nothing crashes."
    )
    good_example = (
        "yield sim.timeout(1.0)\n"
        "self.count = self.count + 1   # read and write between yields"
    )
    bad_example = (
        "snapshot = self.count\n"
        "yield sim.timeout(1.0)        # another writer may run here\n"
        "self.count = snapshot + 1     # clobbers their update"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for report in find_races(project):
            module, scope, attr = report.state
            state_name = f"{scope}.{attr}" if scope else attr
            writers = ", ".join(
                f"{key[1]}()" for key in report.writers
            )
            stale = report.stale
            yield stale.write.fn.ctx.finding(
                stale.write.stmt,
                self.id,
                f"write to shared state {state_name!r} (module {module}) "
                f"uses local {stale.local!r} read from it on line "
                f"{stale.read_line} across a yield; writers: {writers} — "
                "re-read after the yield or update atomically",
            )
