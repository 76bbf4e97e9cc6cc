"""The ``repro campaign`` subcommand.

::

    repro campaign run --protocol 1PC --runs 25 --seed 0 --json CAMPAIGN.json
    repro campaign run                      # all registered protocols
    repro campaign shrink --protocol 1PC --runs 25 --out REPRO.json
    repro campaign replay REPRO.json

``run`` fans seeded campaign cells through the executor and exits
non-zero if any cell's verdict records a violation.  The ``--json``
document is always canonical (no volatile meta), so two invocations at
the same revision are byte-identical and the CI artifact doubles as a
determinism check.  ``shrink`` hunts the grid
for the first violating cell and delta-debugs it to a minimal repro
document; ``replay`` re-executes such a document and reports whether
the violation recurs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the campaign subcommands to ``parser``."""
    from repro.protocols.registry import default_protocols

    protocol_names = default_protocols()
    sub = parser.add_subparsers(dest="campaign_command", required=True)

    def common(p: argparse.ArgumentParser, default_protocol: Any) -> None:
        p.add_argument(
            "--protocol",
            choices=protocol_names,
            default=default_protocol,
            help="protocol to campaign against"
            + (" (default: all registered)" if default_protocol is None else ""),
        )
        p.add_argument("--runs", type=int, default=10, help="seeded runs per protocol")
        p.add_argument("--seed", type=int, default=0, help="base seed for the block")
        p.add_argument("--faults", type=int, default=3, help="faults per schedule")
        p.add_argument("--ops", type=int, default=6, help="operations per run")
        p.add_argument("--clients", type=int, default=2, help="concurrent clients per run")

    p = sub.add_parser("run", help="run a campaign block through the executor")
    common(p, default_protocol=None)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (1 = serial; results are identical)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the canonical campaign document to PATH")
    p.add_argument("--progress", action="store_true",
                   help="report per-cell progress on stderr")
    p.set_defaults(campaign_func=_cmd_run)

    p = sub.add_parser("shrink", help="shrink the block's first violating run "
                       "to a minimal repro document")
    common(p, default_protocol="1PC")
    p.add_argument("--run-index", type=int, default=None,
                   help="shrink this specific run of the block instead of scanning")
    p.add_argument("--out", metavar="PATH", default="CAMPAIGN_repro.json",
                   help="where to write the repro document")
    p.set_defaults(campaign_func=_cmd_shrink)

    p = sub.add_parser("replay", help="re-execute a repro document")
    p.add_argument("repro", metavar="REPRO.json", help="repro document to replay")
    p.add_argument("--json", action="store_true", help="machine-readable result")
    p.set_defaults(campaign_func=_cmd_replay)


def run(args: argparse.Namespace) -> int:
    """Dispatch ``repro campaign <subcommand>``."""
    func: Any = args.campaign_func
    result: int = func(args)
    return result


def _grid(args: argparse.Namespace, protocol: str) -> list[Any]:
    from repro.exec import campaign_grid

    return campaign_grid(
        protocol,
        runs=args.runs,
        seed=args.seed,
        n_faults=args.faults,
        n_ops=args.ops,
        n_clients=args.clients,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.exec import run_sweep
    from repro.protocols.registry import default_protocols

    protocols = [args.protocol] if args.protocol else list(default_protocols())
    specs: list[Any] = []
    for proto in protocols:
        specs.extend(_grid(args, proto))

    progress = None
    if args.progress:
        def progress(event: Any) -> None:
            print(event, file=sys.stderr)

    sweep = run_sweep(specs, kind="campaign", workers=args.workers, progress=progress)

    rows = []
    total_violations = 0
    for proto in protocols:
        cells = [c for c in sweep.cells if c.spec.protocol == proto]
        violations = sum(
            len((c.verdict or {}).get("violations", [])) for c in cells
        )
        bad_runs = sum(
            1 for c in cells if (c.verdict or {}).get("violations")
        )
        fired = sum(int((c.verdict or {}).get("faults_fired", 0)) for c in cells)
        committed = sum(c.committed for c in cells)
        aborted = sum(c.aborted for c in cells)
        total_violations += violations
        rows.append(
            [
                proto,
                str(len(cells)),
                str(committed),
                str(aborted),
                str(fired),
                str(bad_runs),
                str(violations),
            ]
        )
    print(render_table(
        ["Protocol", "Runs", "Committed", "Aborted", "Faults fired",
         "Violating runs", "Violations"],
        rows,
        title=f"Fault campaign — seed {args.seed}, {args.runs} runs/protocol, "
        f"{args.faults} faults/run",
    ))

    if args.json:
        # Always canonical: the campaign document is the verdict
        # record, so byte-reproducibility beats provenance here.
        sweep.write_json(args.json, canonical=True)
        print(f"wrote {len(sweep.cells)} cells to {args.json} (canonical)")

    if total_violations:
        print(f"FAIL: {total_violations} violation(s) recorded", file=sys.stderr)
        return 1
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    from repro.campaign.schedule import CampaignSchedule
    from repro.campaign.shrink import shrink_spec, violation_kinds
    from repro.exec.runners import execute_spec

    specs = _grid(args, args.protocol)
    if args.run_index is not None:
        if not 0 <= args.run_index < len(specs):
            print(
                f"--run-index {args.run_index} outside block of {len(specs)} runs",
                file=sys.stderr,
            )
            return 2
        specs = [specs[args.run_index]]

    for spec in specs:
        cell = execute_spec(spec)
        kinds = violation_kinds(cell)
        if not kinds:
            continue
        print(
            f"run {spec.point}: violates {sorted(kinds)}; shrinking...",
            file=sys.stderr,
        )

        def on_step(label: str, candidate: CampaignSchedule) -> None:
            print(
                f"  accepted {label}: {len(candidate.faults)} fault(s), "
                f"{candidate.n_ops} op(s)",
                file=sys.stderr,
            )

        doc = shrink_spec(spec, on_step=on_step)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        shrink_meta = doc["shrink"]
        print(
            f"minimal repro: {len(shrink_meta['faults'])} fault(s) after "
            f"{shrink_meta['steps']} reduction(s) "
            f"({shrink_meta['tried']} runs tried)"
        )
        for line in shrink_meta["faults"]:
            print(f"  {line}")
        print(f"wrote {args.out}")
        return 0

    print(f"no violations in {len(specs)} run(s); nothing to shrink")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.campaign.shrink import load_repro, replay_repro, violation_kinds
    from repro.faults import ScheduleFormatError

    try:
        doc = load_repro(args.repro)
    except ScheduleFormatError as err:
        print(err, file=sys.stderr)
        return 2
    cell, reproduced = replay_repro(doc)
    expected = sorted({v["check"] for v in doc["verdict"].get("violations", [])})
    observed = sorted(violation_kinds(cell))
    if args.json:
        print(json.dumps(
            {"reproduced": reproduced, "expected": expected, "observed": observed},
            sort_keys=True,
        ))
    else:
        print(f"expected violation kinds: {expected or 'none'}")
        print(f"observed violation kinds: {observed or 'none'}")
        print("REPRODUCED" if reproduced else "did NOT reproduce")
    return 0 if reproduced else 1
