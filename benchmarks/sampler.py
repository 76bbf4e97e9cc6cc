"""Host time per layer, sampled: where a ledger workload's CPU time goes.

    python3 benchmarks/sampler.py --workload composite-1pc

Runs one workload of the performance ledger (``benchmarks/ledger/``)
again and again under a ``SIGPROF`` interval timer
(``signal.setitimer(ITIMER_PROF)``) until at least ``SAMPLES`` (2,000)
samples are taken, then prints ``<layer>.host_share`` for every layer
of ``benchmarks/ledger/layers.py`` and, as the last line, the same as
JSON.  Each sample is charged to the innermost frame whose code lives
under ``src/repro/`` (or is the ledger's own load generator), through
``layers.layer_of``: a builtin, and the ``<string>`` code a dataclass
generates, is charged to the Python frame that called it, where
``cProfile``'s ``self_share`` puts every builtin under ``other``.  A
sample with no such frame on the stack (the interpreter between
repetitions) is charged to ``other``.

Only ``run`` of each repetition is sampled, not its ``build``; the
ledger's exact counts are not taken.  The timer counts process CPU
time, and the kernel may deliver it more coarsely than ``INTERVAL``
asks (on a Linux 6.x container: about every 4 ms for any interval below
that), so the number of repetitions is whatever reaching ``SAMPLES``
takes.
Three runs of ``composite-1pc`` there, 2,007–2,137 samples each, agreed
within 2.1 points per layer.  Stdlib only; imports ``layers`` and
``cells`` read-only, as ``run.py`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Optional

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # The same workload as the ledger's: its hash seed is pinned too.
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, "PYTHONHASHSEED": "0"},
    )

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
sys.path[:0] = [str(ROOT / "src"), str(LEDGER)]

import cells  # noqa: E402
import layers  # noqa: E402

#: Samples to take before the last repetition stops.
SAMPLES = 2000
#: Seconds of process CPU time between samples, as asked of the timer.
INTERVAL = 0.0005


def _charged(filename: str) -> bool:
    """Whether a sample in ``filename``'s code stops the stack walk:
    package code, or the ledger's own load generator."""
    return bool(layers._inside_package(filename)) or filename.startswith(layers._OWN_DIR)


def sample(name: str, seed: int) -> dict[str, Any]:
    """Run workload ``name`` until ``SAMPLES`` samples are taken."""
    workload = cells.WORKLOADS[name]
    counts = dict.fromkeys(layers.LAYERS, 0)

    def on_sample(_signum: int, frame: Optional[Any]) -> None:
        while frame is not None:
            filename = frame.f_code.co_filename
            if _charged(filename):
                counts[layers.layer_of(filename)] += 1
                return
            frame = frame.f_back
        counts["other"] += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    repetitions = 0
    try:
        while sum(counts.values()) < SAMPLES:
            inputs = workload.build(seed, 1)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
            try:
                workload.run(inputs)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            repetitions += 1
    finally:
        signal.signal(signal.SIGPROF, previous)
    total = sum(counts.values())
    return {
        "workload": name,
        "seed": seed,
        "samples": total,
        "repetitions": repetitions,
        "metrics": {f"{layer}.host_share": counts[layer] / total for layer in layers.LAYERS},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cells.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = sample(args.workload, args.seed)
    print(
        f"{report['workload']}  seed {report['seed']}  {report['samples']} samples "
        f"over {report['repetitions']} repetitions"
    )
    for metric, share in sorted(report["metrics"].items(), key=lambda kv: -kv[1]):
        print(f"  {metric:<24} {share:7.1%}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
