"""Delta-debugging shrinker for violating campaign schedules.

Given a schedule whose run violates a check and an *oracle* ("does
this candidate still reproduce the violation?"), the shrinker greedily
reduces along three axes until a fixpoint:

1. **drop faults** — remove one fault at a time, keeping removals that
   still reproduce.  At the fixpoint the fault set is 1-minimal:
   removing any remaining fault un-reproduces.
2. **shrink workload** — halve ``n_ops`` toward 1, collapse to one
   client.
3. **tighten triggers** — pin an unbound trigger to the fault's own
   node and reset ``min_count`` to 1, so the repro names the exact
   window it needs.

The result is emitted as a self-contained JSON *repro document*: the
full executor :class:`~repro.exec.spec.RunSpec` (schedule inside),
the expected verdict, and shrink provenance.  :func:`replay_repro`
re-executes the document and reports whether the same violation kind
recurs — the committed golden repro in ``tests/faults`` replays
through exactly this path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.campaign.schedule import CampaignSchedule
from repro.exec.runners import execute_spec
from repro.exec.spec import CellResult, RunSpec
from repro.faults.triggers import ScheduleFormatError, read_fields

REPRO_SCHEMA_VERSION = 1
REPRO_KIND = "campaign-repro"

#: ``oracle(candidate) -> True`` when the candidate still reproduces.
Oracle = Callable[[CampaignSchedule], bool]

#: Optional progress hook: ``on_step(label, candidate)`` after every
#: accepted reduction.
StepHook = Callable[[str, CampaignSchedule], None]


@dataclass(frozen=True)
class ShrinkResult:
    """A shrunk schedule plus how much work it took."""

    schedule: CampaignSchedule
    #: Accepted reductions.
    steps: int
    #: Oracle invocations (runs executed), including the initial check.
    tried: int


def shrink_schedule(
    schedule: CampaignSchedule,
    oracle: Oracle,
    on_step: Optional[StepHook] = None,
) -> ShrinkResult:
    """Greedily minimise ``schedule`` under ``oracle`` to a fixpoint."""
    tried = 1
    if not oracle(schedule):
        raise ValueError(
            "schedule does not reproduce the violation; nothing to shrink"
        )
    steps = 0
    current = schedule

    def attempt(candidate: CampaignSchedule, label: str) -> bool:
        nonlocal tried, steps, current
        tried += 1
        if oracle(candidate):
            steps += 1
            current = candidate
            if on_step is not None:
                on_step(label, candidate)
            return True
        return False

    changed = True
    while changed:
        changed = False

        # Pass 1: drop faults one at a time (greedy ddmin).
        i = 0
        while i < len(current.faults):
            faults = current.faults[:i] + current.faults[i + 1 :]
            if attempt(replace(current, faults=faults), f"drop fault #{i}"):
                changed = True
            else:
                i += 1

        # Pass 2: shrink the workload.
        while current.n_ops > 1:
            target = current.n_ops // 2
            if not attempt(replace(current, n_ops=target), f"n_ops={target}"):
                break
            changed = True
        if current.n_clients > 1 and attempt(
            replace(current, n_clients=1), "n_clients=1"
        ):
            changed = True

        # Pass 3: tighten trigger predicates.
        for i in range(len(current.faults)):
            fault = current.faults[i]
            if fault.trigger is not None and fault.trigger.actor is None:
                tightened = replace(fault, trigger=replace(fault.trigger, actor=fault.node))
                faults = current.faults[:i] + (tightened,) + current.faults[i + 1 :]
                if attempt(replace(current, faults=faults), f"pin trigger #{i} actor"):
                    changed = True
            fault = current.faults[i]
            if fault.trigger is not None and fault.trigger.min_count > 1:
                tightened = replace(fault, trigger=replace(fault.trigger, min_count=1))
                faults = current.faults[:i] + (tightened,) + current.faults[i + 1 :]
                if attempt(replace(current, faults=faults), f"trigger #{i} min_count=1"):
                    changed = True

    return ShrinkResult(schedule=current, steps=steps, tried=tried)


def violation_kinds(cell: CellResult) -> set[str]:
    """The set of check names a campaign cell violated."""
    verdict = cell.verdict or {}
    return {v["check"] for v in verdict.get("violations", [])}


def shrink_spec(
    spec: RunSpec,
    on_step: Optional[StepHook] = None,
) -> dict[str, Any]:
    """Shrink a violating campaign spec into a repro document.

    Runs cells in-process through the registered runner:
    every candidate is one fresh simulation, and the oracle is "the
    candidate's verdict shares a violated check kind with the
    original".
    """
    if spec.campaign is None:
        raise ValueError("not a campaign spec (no schedule)")
    original = execute_spec(spec)
    kinds = violation_kinds(original)
    if not kinds:
        raise ValueError("spec's run has no violations; nothing to shrink")

    def oracle(candidate: CampaignSchedule) -> bool:
        cell = execute_spec(replace(spec, campaign=candidate.to_json()))
        return bool(violation_kinds(cell) & kinds)

    shrunk = shrink_schedule(
        CampaignSchedule.from_json(spec.campaign), oracle, on_step=on_step
    )
    final_spec = replace(spec, campaign=shrunk.schedule.to_json())
    final_cell = execute_spec(final_spec)
    return repro_document(final_cell, shrunk)


def repro_document(cell: CellResult, shrunk: ShrinkResult) -> dict[str, Any]:
    """A self-contained, replayable repro of one violating cell."""
    return {
        "schema_version": REPRO_SCHEMA_VERSION,
        "kind": REPRO_KIND,
        "spec": cell.spec.to_dict(),
        "verdict": cell.verdict or {},
        "shrink": {
            "steps": shrunk.steps,
            "tried": shrunk.tried,
            "faults": shrunk.schedule.describe(),
        },
    }


def load_repro(path: str) -> dict[str, Any]:
    """Load a repro document from disk, held to what
    :func:`repro_document` writes: anything else is a
    :class:`~repro.faults.ScheduleFormatError` naming the file and the
    field (``spec.campaign.faults[0].at``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("kind") != REPRO_KIND:
            raise ScheduleFormatError("not a campaign repro document")
        version = doc.get("schema_version")
        if version != REPRO_SCHEMA_VERSION:
            raise ScheduleFormatError(
                f"unsupported repro schema {version!r} (expected {REPRO_SCHEMA_VERSION})"
            )
        fields = dict.fromkeys(("spec", "verdict", "shrink"), dict)
        read_fields(doc, "", fields | {"kind": str, "schema_version": int})
        expected = doc["verdict"].get("violations", [])
        if not isinstance(expected, list) or not all(
            isinstance(v, dict) and isinstance(v.get("check"), str) for v in expected
        ):
            raise ScheduleFormatError("verdict.violations: expected a list of {check: ...}")
        spec = RunSpec.from_dict(doc["spec"])
        if spec.campaign is None:
            raise ScheduleFormatError("spec.campaign: missing")
        CampaignSchedule.from_json(spec.campaign, "spec.campaign")
    except json.JSONDecodeError as err:
        raise ScheduleFormatError(f"{path}: not JSON ({err})") from None
    except ScheduleFormatError as err:
        raise ScheduleFormatError(f"{path}: {err}") from None
    return doc


def replay_repro(doc: dict[str, Any]) -> tuple[CellResult, bool]:
    """Re-execute a repro document.

    Returns the fresh cell and whether the run reproduced at least one
    of the document's recorded violation kinds.
    """
    cell = execute_spec(RunSpec.from_dict(doc["spec"]))
    expected = {v["check"] for v in doc.get("verdict", {}).get("violations", [])}
    return cell, bool(violation_kinds(cell) & expected)
