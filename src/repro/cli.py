"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro report                  # every table and figure
    python -m repro report --only table1,figure6
    python -m repro report --check EXPERIMENTS.md
    python -m repro burst --protocol EP --n 50
    python -m repro explain --protocol PrN
    python -m repro sweep --kind latency
    python -m repro perf --json BENCH_perf.json
    python -m repro campaign run --runs 10 --seed 0
    python -m repro protocols --json

Protocol choices everywhere come from the plug-in registry
(:mod:`repro.protocols.registry`), so a newly registered protocol is
selectable in every subcommand without CLI edits.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _protocol_names() -> tuple:
    """Registered protocol names in registry enumeration order."""
    from repro.protocols.registry import default_protocols

    return default_protocols()


def _cmd_burst(args: argparse.Namespace) -> int:
    from repro.workloads import run_burst

    result = run_burst(args.protocol, n=args.n, op=args.op)
    print(
        f"{args.protocol}: {result.committed}/{args.n} committed, "
        f"{result.throughput:.2f} tx/s (makespan {result.makespan * 1e3:.1f} ms)"
    )
    stats = result.latency
    print(f"latency: p50 {stats.p50 * 1e3:.2f} ms, p95 {stats.p95 * 1e3:.2f} ms, "
          f"max {stats.maximum * 1e3:.2f} ms")
    violations = result.cluster.check_invariants()
    print("invariants:", violations or "OK")
    return 0 if not violations else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run one row of the experiment table through the parallel executor."""
    from repro.analysis.tables import render_table
    from repro.exec import run_sweep
    from repro.harness.sweeps import SWEEPS, fold

    row = SWEEPS[args.kind]
    if args.kind == "composite":
        # --n is the cell's total operation count (the mdtest scale
        # knob), split over --groups independent shard groups.
        specs = row.specs((args.n,), groups=args.groups, seed=args.seed)
    else:
        # The burst sweep's axis is the size: it takes no --n.
        specs = row.specs(seed=args.seed, **({} if args.kind == "burst" else {"n": args.n}))
    progress = None
    if args.progress:
        def progress(event):
            print(event, file=sys.stderr)

    sweep = run_sweep(specs, kind=args.kind, workers=args.workers, progress=progress)

    # One line per point label (figure6's cells share one), one column
    # per protocol, in registry order.
    table: dict = {}
    for point, by_protocol in fold(sweep.cells).items():
        table.setdefault(row.label(point), {}).update(by_protocol)
    seen = {cell.spec.protocol for cell in sweep.cells}
    columns = [p for p in _protocol_names() if p in seen]
    columns += sorted(seen - set(columns))  # unregistered stragglers
    rows = [[label] + [f"{tps[p]:.1f}" for p in columns] for label, tps in table.items()]
    print(render_table([row.axis, *columns], rows, title=row.title))
    if args.json:
        sweep.write_json(args.json, canonical=args.canonical)
        print(f"wrote {len(sweep.cells)} cells to {args.json}"
              f"{' (canonical)' if args.canonical else ''}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def _artifact_names(text: str) -> list:
    """``--only NAME[,NAME...]``: names from the artifact table."""
    from repro.harness.report import select

    try:
        return [artifact.name for artifact in select(text.split(","))]
    except KeyError as unknown:
        raise argparse.ArgumentTypeError(unknown.args[0]) from None


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import run

    return run(args.only, args.check, args.update)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import cli as campaign_cli

    return campaign_cli.run(args)


def _cmd_protocols(args: argparse.Namespace) -> int:
    """List the registered commit protocols (the CI matrix source)."""
    import json

    from repro.protocols.registry import specs

    if args.json:
        print(json.dumps([spec.describe() for spec in specs()], indent=2))
        return 0

    from repro.analysis.tables import render_table

    rows = [
        [
            spec.name,
            spec.engine.__name__,
            ",".join(sorted(spec.capabilities)) or "-",
            "-" if spec.paper_figure6 is None else f"{spec.paper_figure6:.2f}",
            spec.summary,
        ]
        for spec in specs()
    ]
    print(render_table(
        ["Name", "Engine", "Capabilities", "Paper fig6 (tx/s)", "Summary"],
        rows,
        title=f"Registered commit protocols ({len(rows)})",
    ))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.harness.calibrate import PAPER_GAINS, quick_search

    print(f"Target gains over PrN: {PAPER_GAINS}")
    points = quick_search(n=args.n)
    for point in points[:8]:
        print(point.describe())
    best = points[0]
    print(f"\nBest: {best.describe()}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """The million-transaction scale run (events/sec, txns/sec, peak RSS)."""
    from repro.exec.perf import render_perf, run_perf

    announce = (lambda line: print(line, file=sys.stderr)) if args.progress else None
    results = run_perf(progress=announce)
    print(render_perf(results))
    if args.json:
        results.write_json(args.json)
        print(f"wrote {len(results.workloads)} workloads to {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one trace-enabled Figure-6 burst cell and export its spans.

    The run goes through the executor (same runner as ``repro sweep
    --kind figure6``) so the exported timeline is exactly one cell of
    the headline experiment, just with observability switched on.
    """
    from repro.exec import RunSpec, execute_spec
    from repro.obs import dump_spans, write_chrome_trace

    spec = RunSpec(
        kind="burst", protocol=args.protocol, n=args.n, seed=args.seed, trace="full"
    )
    cell = execute_spec(spec, keep_cluster=True)
    cluster = cell.payload.cluster
    # Close anything still open (crashed/abandoned legs) so exporters
    # see only finished spans.
    cluster.obs.spans.close_open()

    if args.format == "records":
        from repro.analysis.traceio import dump_trace

        count = dump_trace(cluster.trace, args.out)
        print(f"wrote {count} trace records to {args.out}")
    elif args.format == "chrome":
        with open(args.out, "w", encoding="utf-8") as fp:
            doc = write_chrome_trace(cluster.obs.spans, fp, protocol=args.protocol)
        print(
            f"wrote {len(doc['traceEvents'])} trace events to {args.out} "
            f"(open in Perfetto / chrome://tracing)"
        )
    else:
        roots = cluster.obs.spans.roots()
        with open(args.out, "w", encoding="utf-8") as fp:
            count = dump_spans(roots, fp)
        print(f"wrote {count} transaction spans to {args.out}")
    print(
        f"{args.protocol} n={args.n}: {cell.committed} committed, "
        f"{cell.throughput:.1f} tx/s"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Where a Figure-6 cell's latency went, per op: p50 / p99 of each
    attribute-mode component (seconds or counts), and Table I's forced
    writes and messages (beyond the execution pair) per transaction."""
    from repro.analysis.costs import BASE_MESSAGES
    from repro.analysis.tables import render_table
    from repro.exec import figure6_grid
    from repro.obs.hub import COMPONENTS
    from repro.workloads import run_burst

    (spec,) = figure6_grid([args.protocol], n=args.n)
    burst = run_burst(args.protocol, n=args.n, params=spec.seeded_params(), trace="attribute")
    found, rows = burst.cluster.obs.attribution(), []
    for protocol, op in sorted({key[:2] for key in found}):
        stats = [found[protocol, op, component] for component in COMPONENTS]
        quantiles = [f"{s.quantile(50):.4g} / {s.quantile(99):.4g}" for s in stats]
        means = [f"{stats[3].mean:.2f}", f"{stats[4].mean - BASE_MESSAGES:.2f}"]
        rows.append([protocol, op, stats[0].count, *quantiles, *means])
    headers = ["protocol", "op", "txns", *COMPONENTS, "forced writes/txn", "extra msgs/txn"]
    print(render_table(headers, rows, title=f"{args.protocol}: Figure-6 burst of {args.n}"))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'One Phase Commit' (CLUSTER 2012) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    protocol_names = _protocol_names()

    p = sub.add_parser("burst", help="run one burst workload")
    p.add_argument("--protocol", choices=protocol_names, default="1PC")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--op", choices=["create", "delete"], default="create")
    p.set_defaults(func=_cmd_burst)

    p = sub.add_parser("sweep", help="parameter sweeps via the parallel executor")
    from repro.harness.sweeps import SWEEPS

    p.add_argument("--kind", choices=tuple(SWEEPS), default="latency")
    p.add_argument("--n", type=int, default=40,
                   help="burst size / ops per directory / files / total composite ops")
    p.add_argument("--groups", type=_positive_int, default=2,
                   help="independent shard groups for --kind composite")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool size (1 = serial; results are identical)")
    p.add_argument("--seed", type=int, default=0, help="base seed for the grid")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write machine-readable results to PATH")
    p.add_argument("--canonical", action="store_true",
                   help="omit volatile meta from --json (bit-reproducible output)")
    p.add_argument("--progress", action="store_true",
                   help="report per-cell progress on stderr")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="re-run the calibration grid search")
    p.add_argument("--n", type=int, default=40, help="burst size per grid point")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "perf",
        help="the million-transaction scale run (minutes; host performance "
        "is measured by benchmarks/ledger/run.py)",
    )
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write machine-readable BENCH_perf.json to PATH")
    p.add_argument("--progress", action="store_true",
                   help="announce the run on stderr before it starts")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser(
        "trace", help="run one trace-enabled Figure-6 cell and export it"
    )
    p.add_argument("--protocol", choices=protocol_names, default="1PC")
    p.add_argument("--n", type=int, default=30, help="burst size")
    p.add_argument("--seed", type=int, default=0, help="base seed for the cell")
    p.add_argument(
        "--format",
        choices=["spans", "chrome", "records"],
        default="spans",
        help="spans = JSONL span dump, chrome = trace_event JSON "
        "(Perfetto), records = the flat trace every span event comes from",
    )
    p.add_argument("--out", default="trace.jsonl")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("explain", help="where a Figure-6 cell's latency went, by component")
    p.add_argument("--protocol", choices=protocol_names, default="1PC")
    p.add_argument("--n", type=_positive_int, default=100, help="burst size")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "lint",
        help="static analysis: determinism, coroutine-safety and "
        "protocol-discipline rules (the CI gate)",
    )
    from repro.lint import cli as lint_cli

    lint_cli.add_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "report", help="every table and figure of EXPERIMENTS.md, and the check holding it to them"
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--only", metavar="NAME[,NAME...]", type=_artifact_names, default=None,
                      help="print these artifacts instead of all of them")
    mode.add_argument("--check", metavar="PATH", default=None,
                      help="re-measure; exit 1 on any block of PATH that differs from its "
                      "artifact, any claim that fails, any block or artifact without the other")
    mode.add_argument("--update", metavar="PATH", default=None,
                      help="rewrite the report blocks of PATH in place")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "campaign",
        help="randomized fault/contention campaigns with shrinking and replay",
    )
    from repro.campaign import cli as campaign_cli

    campaign_cli.add_arguments(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "protocols",
        help="list registered commit protocols (drives the CI conformance matrix)",
    )
    p.add_argument("--json", action="store_true",
                   help="machine-readable spec dump (one object per protocol)")
    p.set_defaults(func=_cmd_protocols)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
