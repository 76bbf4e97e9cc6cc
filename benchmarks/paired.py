"""Paired ledger runs: this checkout against another revision, turn about.

    python3 benchmarks/paired.py REV --workload traced-burst

Checks ``REV`` out with ``git worktree add`` into a temporary directory,
then runs both trees' ``benchmarks/ledger/run.py --workload W --json``
in pairs, ``--pairs`` of them per workload (10 by default; every
workload of ``BENCHMARK.json`` unless ``--workload`` names some), each
run over the ledger's own timed window.  The order alternates: base
first in even pairs, head first in odd ones, so whatever favours the
second run of a pair (a warm page cache, a clock ramping up, a
neighbour's load fading) favours each tree equally often.  For each
end-to-end metric it prints the median and the min–max of the paired
ratio head / base and a verdict against the metric's regression bound,
read as the ledger's ``--selfcheck`` reads it (a relative difference
above the bound): ``REGRESSED`` when the median is beyond it on the
worse side, ``within`` when every pair is inside it, ``better`` when
every head run beat every base run, else ``unresolved`` (some pair is
beyond the bound, so the pairs spread too widely to tell a change from
the host).  ``--history`` also prints the candidate
``BENCH_history.jsonl`` rows: one per exact metric (every metric the
ledger does not call volatile) that differs between the trees, with
both revisions and an empty ``reason`` to fill in.

Both trees run in the same bytecode-cache state: each gets its own
empty ``PYTHONPYCACHEPREFIX``, so neither reads a ``__pycache__`` left
in its tree, and both honour the caller's ``PYTHONDONTWRITEBYTECODE``
alike (set: every import compiles, as in a fresh checkout; unset: the
first run of each tree writes the cache the later ones read).  Without
that, ``setup_s``'s import probe compares a compiling tree with a
cached one (0.38–0.62 s against 0.09–0.10 s on a 2-CPU container).
The worktree is removed on exit.  Stdlib and local git only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

# The ledger's contract and its host-decided metrics (``VOLATILE``):
# every other metric must repeat exactly within one tree.
from run import SPEC, VOLATILE  # noqa: E402


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _run(tree: Path, cache: Path, workload: str, args: argparse.Namespace, out: Path) -> Any:
    """One ledger run of ``workload`` in ``tree``; its full report."""
    command = [
        sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
        "--workload", workload, "--seed", str(args.seed), "--json", str(out),
    ]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}
    subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)
    return json.loads(out.read_text(encoding="utf-8"))["metrics"]


def paired(base_tree: Path, workload: str, args: argparse.Namespace, tmp: Path) -> list[Any]:
    """``args.pairs`` pairs of ``(base metrics, head metrics)``; the
    base runs first in even pairs, the head in odd ones."""
    pairs = []
    for index in range(args.pairs):
        runs = {}
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else ROOT
            runs[side] = _run(tree, tmp / f"cache-{side}", workload, args, tmp / f"{side}.json")
        pairs.append((runs["base"], runs["head"]))
        print(f"  pair {index + 1}/{args.pairs} done", file=sys.stderr)
    return pairs


def verdict(values: list[tuple[float, float]], better: str, bound: float) -> str:
    """One metric's ``(base, head)`` pairs read against its ``bound``:
    ``REGRESSED`` if the median ratio head / base is beyond it on the
    worse side, ``within`` if every pair's ratio is inside it, ``better``
    if every head run beat every base run, else ``unresolved``."""
    sign = 1 if better == "higher" else -1
    ratios = [head / base for base, head in values]
    if sign * (statistics.median(ratios) - 1) < -bound:
        return "REGRESSED"
    if all(abs(ratio - 1) <= bound for ratio in ratios):
        return "within"
    if min(sign * head for _, head in values) > max(sign * base for base, _ in values):
        return "better"
    return "unresolved"


def summarise(workload: str, pairs: list[Any]) -> None:
    print(workload)
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [(b[name]["value"], h[name]["value"]) for b, h in pairs]
        known = [(base, head) for base, head in values if base and head is not None]
        if not known:
            print(f"  {name:<16} n/a")
            continue
        ratios = [head / base for base, head in known]
        print(
            f"  {name:<16} head/base median {statistics.median(ratios):.4f}  "
            f"min {min(ratios):.4f}  max {max(ratios):.4f}  "
            f"{verdict(known, metric['better'], metric['bound'])} "
            f"({metric['better']} is better, bound {metric['bound']:.0%})"
        )


def history_rows(workload: str, pairs: list[Any], base_rev: str, head_rev: str) -> list[str]:
    base, head = pairs[0]
    rows = []
    for name, entry in base.items():
        if name in VOLATILE or entry["value"] == head[name]["value"]:
            continue
        rows.append(json.dumps({
            "workload": workload, "metric": name,
            "before": entry["value"], "after": head[name]["value"],
            "base": base_rev, "commit": head_rev, "reason": "",
        }, ensure_ascii=False))
    return rows


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision (any name git rev-parse takes)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="workload to pair (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--history", action="store_true",
                        help="print the candidate BENCH_history.jsonl rows")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_rev = _git("rev-parse", "--short", args.rev)
    head_rev = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        head_rev += "+dirty"
    rows = []
    with tempfile.TemporaryDirectory(prefix="paired-") as name:
        tmp = Path(name)
        base_tree = tmp / "base"
        _git("worktree", "add", "--detach", str(base_tree), base_rev)
        try:
            for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
                pairs = paired(base_tree, workload, args, tmp)
                summarise(workload, pairs)
                rows += history_rows(workload, pairs, base_rev, head_rev)
        finally:
            _git("worktree", "remove", "--force", str(base_tree))
    if args.history:
        print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
