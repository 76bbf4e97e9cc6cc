"""Static analysis for the reproduction (``repro lint``).

The paper's evaluation rests on a deterministic, seedable simulation.
This package enforces that, and the coroutine and instrumentation
idioms the simulation depends on, statically, as a zero-findings CI
gate:

* **DET** — determinism: no wall-clock or unseeded global ``random``
  in ``src/repro``; no iteration over unordered ``set``/``.keys()``
  views in the event-ordering modules (``sim/``, ``net/``, ``locks/``,
  ``core/``) unless wrapped in ``sorted()``.
* **GEN** — coroutine safety: no blocking host calls inside simulation
  processes or protocol-session steps, and no call that returns a wait
  (a WAL force, an inbox receive, a fencing or remote-read generator)
  whose result is silently dropped instead of being yielded.
* **OBS** — instrumentation hooks early-out on ``enabled`` before any
  other work, keeping tracing near-zero-cost when off.

Each rule checks one parsed file at a time.  The §III fencing
discipline (fence a worker before reading its log) is not a lint
rule: ``SharedStorage.read_remote_log`` refuses an unfenced owner at
run time, and the conformance battery runs the one recovery path that
reads.  There is no suppression: a finding is fixed, or the rule's
scope says why it does not apply.  ``docs/static-analysis.md`` holds
the full rule catalog; ``repro lint --explain RULE-ID`` prints one
entry with good/bad examples.  The package imports nothing from
``repro`` outside ``repro.lint``: a protocol's log-record vocabulary
is a property of its runs, checked by the conformance battery
(:mod:`repro.harness.conformance`), not read off its source.
"""

from __future__ import annotations

import repro.lint.rules  # noqa: F401  (registers every built-in rule)
from repro.lint.engine import LintReport, iter_python_files, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rule
from repro.lint.reporters import render_json, render_sarif, render_text

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
