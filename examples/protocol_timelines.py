#!/usr/bin/env python3
"""Regenerate the paper's protocol figures (Figures 2-5) from traces.

Each timeline is produced by actually running one distributed CREATE
under the protocol and rendering the trace — so the figures can never
drift from the implementation.

The same run can be inspected interactively in Perfetto: pass
``--perfetto DIR`` to also export one Chrome ``trace_event`` JSON per
protocol.  Open the files at https://ui.perfetto.dev (or
chrome://tracing) — each MDS node is a process track, the transaction
a thread inside it, WAL forces and lock traffic instant markers.

Run:  python examples/protocol_timelines.py [--perfetto DIR]
"""

import argparse
import os

from repro.harness.diagrams import render_all_timelines


def export_perfetto(out_dir: str) -> None:
    from repro.mds.scenarios import distributed_create_cluster
    from repro.obs import write_chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    for protocol in ("PrN", "PrC", "EP", "1PC"):
        cluster, client = distributed_create_cluster(protocol)
        done = cluster.sim.process(client.create("/dir1/f0"), name="timeline")
        cluster.sim.run(until=done)
        cluster.sim.run(until=cluster.sim.now + 60.0)
        cluster.obs.spans.close_open()
        path = os.path.join(out_dir, f"timeline_{protocol}.json")
        with open(path, "w", encoding="utf-8") as fp:
            doc = write_chrome_trace(cluster.obs.spans, fp, protocol=protocol)
        print(f"{protocol}: wrote {len(doc['traceEvents'])} events to {path}")
    print("\nOpen the files at https://ui.perfetto.dev to compare the")
    print("protocols' critical paths interactively.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--perfetto",
        metavar="DIR",
        default=None,
        help="also export Chrome trace_event JSON per protocol into DIR",
    )
    args = parser.parse_args()
    print(render_all_timelines())
    if args.perfetto:
        export_perfetto(args.perfetto)
