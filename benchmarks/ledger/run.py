"""Performance ledger: run the pinned workloads and print their metrics.

    python3 benchmarks/ledger/run.py --workload composite-1pc --seed 0 \\
        --seconds 10 --trace 0

measures one workload in this process and prints, as the last line of
standard output, the JSON object ``BENCHMARK.json`` describes
(``--trace 0``: its end-to-end metrics, ``--trace 1``: its per-layer
metrics).  Without ``--workload`` every workload runs, one child
process after another; ``--selfcheck`` does that twice and compares.
See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Call counts depend on the iteration order of one set of node
    # names (protocols/paxos.py), hence on str hashing: start again
    # with the hash seed pinned so the exact metrics repeat exactly.
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no repro package under {SRC}; run from a full checkout")
# The checkout's own package, never an installed copy; the benchmark's
# modules are imported as siblings so the directory stays self-contained.
sys.path[:0] = [str(SRC), str(HERE)]

import cells  # noqa: E402
import layers  # noqa: E402
from repro.analysis.metrics import percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Metrics the host decides; everything else must repeat exactly
#: between two runs of one commit with one seed.
VOLATILE = {
    "host_ops_per_s", "peak_rss_mib", "setup_s",
    "trace_overhead_ratio", "host_rep_spread",
} | {f"{layer}.self_share" for layer in layers.LAYERS}

#: What the result line prints for a per-layer metric that does not
#: apply to the workload (the report file says ``null``).
NOT_APPLICABLE = -1

IMPORT_PROBES = 5
_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import cells; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import the package and the workloads in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


def _repeat(workload: cells.Workload, seed: int, scale: int) -> tuple[cells.Facts, float, float]:
    """One repetition: ``(facts, wall seconds, build seconds)``."""
    gc.collect()
    started = time.perf_counter()
    inputs = workload.build(seed, scale)
    built = time.perf_counter()
    facts = workload.run(inputs)
    return facts, time.perf_counter() - started, built - started


def _same_facts(reference: cells.Facts, facts: cells.Facts, what: str) -> None:
    if facts != reference:
        differing = [
            f.name for f in dataclasses.fields(facts)
            if getattr(facts, f.name) != getattr(reference, f.name)
        ]
        raise cells.CheckFailed(f"{what} differs from the first in {differing}")


def measure(name: str, seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    """Run one workload in this process and return its report."""
    workload = cells.WORKLOADS[name]
    scale = 10 if quick else 1

    # Timed repetitions, profiler off, for as long as another one fits
    # the window.  The first pays cold caches and so cannot be the
    # minimum unless the host is noisier than that.
    reference: Optional[cells.Facts] = None
    walls: list[float] = []
    builds: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() + min(walls) <= deadline:
        facts, wall, build = _repeat(workload, seed, scale)
        if reference is None:
            reference = facts
        _same_facts(reference, facts, f"repetition {len(walls)}")
        walls.append(wall)
        builds.append(build)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The counted repetition: same inputs under cProfile, excluded from
    # the timings and the RSS above.  The collector is off for it: when
    # it finalises a suspended generator the profile counts a call, and
    # when it runs depends on how many repetitions came before.
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    facts = workload.run(workload.build(seed, scale))
    profile.disable()
    counted_wall = time.perf_counter() - started
    gc.enable()
    _same_facts(reference, facts, "the counted repetition")

    imports = [_import_seconds() for _ in range(IMPORT_PROBES)]
    ops = reference.attempted
    best = min(walls)
    values: dict[str, Optional[float]] = layers.fold(profile.getstats(), ops)
    values.update({
        "host_ops_per_s": ops / best,
        "peak_rss_mib": rss_kib / 1024,
        # Minima, like the wall time: host noise only ever adds.
        "setup_s": min(imports) + min(builds),
        "sim_ops_per_s": reference.done / reference.sim_time,
        "sim_p50_ms": percentile(reference.latencies, 50) * 1e3,
        "sim_p99_ms": percentile(reference.latencies, 99) * 1e3,
        "ok_op_share": reference.done / ops,
        "sim.events_per_op": reference.events / ops,
        "storage.forced_per_op": reference.forced / ops,
        "storage.lazy_per_op": reference.lazy / ops,
        "storage.disk_writes_per_op": reference.disk_writes / ops,
        "storage.log_bytes_per_op": reference.log_bytes / ops,
        "obs.records_per_op": reference.trace_records / ops,
        "storage.sim_disk_util_max": reference.disk_util_max,
        "locks.sim_wait_ms_per_op": (
            None if reference.lock_wait_s is None else reference.lock_wait_s * 1e3 / ops
        ),
        "trace_overhead_ratio": counted_wall / best,
        "host_rep_spread": max(walls) / best,
    })
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    return {
        "workload": name,
        "seed": seed,
        "comparable": not quick,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": ops,
        "failed": 0,  # a lost or botched operation fails a check above
        "latency_samples": len(reference.latencies),
        "detail": reference.detail,
        "reps": [{"wall_s": w, "build_s": b} for w, b in zip(walls, builds)],
        "import_s": imports,
        "counted_wall_s": counted_wall,
        # KeyError here means BENCHMARK.json names a metric this file
        # does not compute.
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def result_line(report: dict[str, Any], trace: int) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {}
    for metric in wanted:
        entry = dict(report["metrics"][metric["name"]])
        if entry["value"] is None:
            entry["value"] = NOT_APPLICABLE
        metrics[metric["name"]] = entry
    return json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def _show(value: Optional[float]) -> str:
    return "n/a" if value is None else repr(value)


def print_report(report: dict[str, Any], trace: int) -> None:
    print(
        f"{report['workload']}  seed {report['seed']}  "
        f"{report['attempted']} ops, {report['failed']} failed, "
        f"{report['latency_samples']} latency samples, "
        f"{len(report['reps'])} timed repetitions  {report['detail']}"
    )
    if not report["comparable"]:
        print("  --quick: tenth-size inputs, not comparable with a full run")
    for metric in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
        entry = report["metrics"][metric["name"]]
        print(f"  {metric['name']:<28} {_show(entry['value']):>24} {entry['unit']}")


def run_suite(names: list[str], args: argparse.Namespace) -> dict[str, dict[str, Any]]:
    """Each workload in a child process of its own, one at a time, so
    every workload has its own peak RSS, import and warm caches."""
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--json", str(out),
            ] + (["--quick"] if args.quick else [])
            subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
            reports[name] = json.loads(out.read_text(encoding="utf-8"))
    return reports


def selfcheck(first: dict[str, Any], second: dict[str, Any]) -> list[str]:
    """Print both passes side by side; return what disagrees."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    problems = []
    for name in first:
        print(f"{name}")
        for metric, entry in first[name]["metrics"].items():
            a, b = entry["value"], second[name]["metrics"][metric]["value"]
            if a == b:
                diff = 0.0
            elif a is None or b is None or a == 0:
                diff = float("inf")
            else:
                diff = abs(b - a) / abs(a)
            verdict = ""
            if metric not in VOLATILE and a != b:
                verdict = "  EXACT METRIC DIFFERS"
            elif metric in bounds and diff > bounds[metric]:
                verdict = f"  BEYOND BOUND {bounds[metric]:.0%}"
            if verdict:
                problems.append(f"{name} {metric}: {a!r} vs {b!r}{verdict}")
            kind = "volatile" if metric in VOLATILE else "exact"
            print(
                f"  {metric:<28} {_show(a):>24} {_show(b):>24} "
                f"{diff:9.3%} {kind}{verdict}"
            )
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of the timed window of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: print the end-to-end metrics, 1: the per-layer ones")
    parser.add_argument("--json", metavar="OUT", help="also write the full report here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: tenth-size inputs, two repetitions, not comparable")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare the two passes")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    names = args.workload or WORKLOAD_NAMES

    if args.selfcheck:
        problems = selfcheck(run_suite(names, args), run_suite(names, args))
        for problem in problems:
            print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
        return 1 if problems else 0

    if len(names) > 1:
        reports = run_suite(names, args)
        for report in reports.values():
            print_report(report, args.trace)
        document: Any = {"workloads": reports}
    else:
        try:
            document = measure(names[0], args.seed, args.seconds, args.quick)
        except cells.CheckFailed as failure:
            print(f"CHECK FAILED: {names[0]}: {failure}", file=sys.stderr)
            return 1
        print_report(document, args.trace)
        print(result_line(document, args.trace))
    if args.json:
        Path(args.json).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
