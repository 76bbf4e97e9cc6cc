"""The reproduction report, and the document held to it.

``python -m repro report`` measures the artifact table
(:data:`repro.harness.artifacts.ARTIFACTS`) and prints every rendering;
``--only`` prints some of them.  ``EXPERIMENTS.md`` carries the same
renderings, each in a fenced block right under a marker line::

    <!-- repro:report figure6 -->
    ```
    Figure 6 — ...
    ```

``--check`` re-measures and reports every block that differs from its
artifact (a unified diff; lines compare right-stripped, ``render_table``
pads its last column), every claim that no longer holds, every block
naming no artifact and every artifact without a block.  ``--update``
rewrites the blocks in place — the only way a number enters the file.
"""

from __future__ import annotations

import difflib
import re
from typing import Any, Iterator, Optional, Sequence

from repro.config import SimulationParams
from repro.harness.artifacts import ARTIFACTS, Artifact

MARKER = re.compile(r"<!-- repro:report (\S+) -->\s*$")
FENCE = "```"


class ReportFormatError(ValueError):
    """A malformed report block in a document; names the line."""


def select(names: Optional[Sequence[str]] = None) -> tuple[Artifact, ...]:
    """The artifacts called ``names``, in table order (all by default)."""
    if names is None:
        return ARTIFACTS
    have = [a.name for a in ARTIFACTS]
    unknown = [name for name in names if name not in have]
    if unknown:
        raise KeyError(f"no artifact named {', '.join(unknown)}; have {', '.join(have)}")
    return tuple(a for a in ARTIFACTS if a.name in names)


def measure() -> dict[str, Any]:
    """Artifact name -> its freshly measured data."""
    return {a.name: a.measure() for a in ARTIFACTS}


def generate_report(names: Optional[Sequence[str]] = None) -> str:
    """The report as one string: the parameters, then each artifact."""
    p = SimulationParams.paper_defaults()
    sections = [
        "=" * 72,
        "One Phase Commit (CLUSTER 2012) — reproduction report",
        "=" * 72,
        f"parameters: compute {p.compute.write_latency * 1e6:.0f} us/op, "
        f"network {p.network.latency * 1e6:.0f} us, "
        f"log device {p.storage.bandwidth / 1024:.0f} KB/s, "
        f"dispatch {p.compute.msg_processing_latency * 1e6:.0f} us/msg",
    ]
    for artifact in select(names):
        sections += ["", artifact.render(artifact.measure())]
    return "\n".join(sections)


def _blocks(lines: Sequence[str]) -> Iterator[tuple[str, int, int]]:
    """``(name, first, end)`` per report block: ``lines[first:end]`` is
    what stands between the fences under the marker."""
    seen: dict[str, int] = {}
    for index, line in enumerate(lines):
        marker = MARKER.match(line)
        if not marker:
            continue
        name, at = marker.group(1), index + 1
        if name in seen:
            raise ReportFormatError(
                f"line {at}: a second block for {name!r} (the first is on line {seen[name]})"
            )
        seen[name] = at
        if at >= len(lines) or not lines[at].startswith(FENCE):
            raise ReportFormatError(f"line {at}: no ``` fence opens under the {name!r} marker")
        end = next((i for i in range(at + 1, len(lines)) if lines[i].startswith(FENCE)), None)
        if end is None or any(MARKER.match(inner) for inner in lines[at + 1 : end]):
            raise ReportFormatError(f"line {at}: the block of {name!r} is never closed by ```")
        yield name, at + 1, end


def reconcile(
    text: str,
    measured: dict[str, Any],
    artifacts: Sequence[Artifact] = ARTIFACTS,
    path: str = "EXPERIMENTS.md",
) -> tuple[str, list[str]]:
    """``text`` with each block replaced by its artifact's rendering of
    ``measured``, and everything that was wrong with it as it stood: a
    block that differed, a block naming no artifact, an artifact with
    no block, a claim that does not hold."""
    missing = {a.name: a for a in artifacts}
    lines = text.split("\n")
    problems = []
    # Back to front, so a rewritten block moves no block still to come.
    for name, first, end in reversed(list(_blocks(lines))):
        if name not in missing:
            problems.append(f"{path}:{first - 1}: block names no artifact: {name!r}")
            continue
        was = [line.rstrip() for line in lines[first:end]]
        now = [line.rstrip() for line in missing.pop(name).render(measured[name]).splitlines()]
        lines[first:end] = now
        if was != now:
            problems.append("\n".join(difflib.unified_diff(
                was, now, f"{path} ({name})", f"repro report --only {name}", lineterm=""
            )))
    problems.reverse()
    problems += [f"{path}: artifact {name!r} has no block" for name in missing]
    problems += [
        f"{a.name}: claim no longer holds: {claim}"
        for a in artifacts
        for claim, holds in a.claims
        if not holds(measured[a.name])
    ]
    return "\n".join(lines), problems


def run(only: Optional[Sequence[str]], check: Optional[str], update: Optional[str]) -> int:
    """``repro report``: print the report, or hold the document at
    ``check`` / ``update`` to the table (exit code 1 when it differs,
    still differs after the rewrite, or cannot be parsed)."""
    path = check or update
    if path is None:
        print(generate_report(only))
        return 0
    with open(path, encoding="utf-8") as fp:
        text = fp.read()
    measured = measure()
    try:
        text, problems = reconcile(text, measured, path=path)
        if update:
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(text)
            problems = reconcile(text, measured, path=path)[1]
    except ReportFormatError as malformed:
        problems = [f"{path}: {malformed}"]
    claims = sum(len(a.claims) for a in ARTIFACTS)
    ok = f"{path}: {len(ARTIFACTS)} artifacts current, {claims} claims hold"
    print("\n".join(problems) or ok)
    return 1 if problems else 0
