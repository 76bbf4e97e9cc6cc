"""Figures 2-5: protocol timelines regenerated from traces.

Each paper figure is a message/write sequence diagram for one
distributed namespace operation.  ``render_timeline`` runs a single
distributed CREATE under the requested protocol and renders the trace
as a two-column timeline: one column per MDS, message arrows between
them, log writes and the client reply annotated with virtual
timestamps.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationParams
from repro.mds.scenarios import distributed_create_cluster

#: Paper figure number per protocol.
FIGURE_OF = {"PrN": 2, "PrC": 3, "EP": 4, "1PC": 5}


def render_timeline(protocol: str, params: Optional[SimulationParams] = None) -> str:
    """One distributed CREATE under ``protocol`` as an ASCII timeline."""
    cluster, client = distributed_create_cluster(protocol, params=params)
    done = cluster.sim.process(client.create("/dir1/f0"), name="timeline")
    cluster.sim.run(until=done)
    cluster.sim.run()
    trace = cluster.trace

    txn_id = trace.select("txn_done")[0].get("txn")
    events = []
    for rec in trace.records:
        if rec.get("txn") != txn_id:
            continue
        if rec.category == "msg_send":
            kind = rec.get("kind")
            if kind in ("CLIENT_REQUEST", "CLIENT_REPLY"):
                continue
            events.append((rec.time, rec.actor, f"--{kind}--> {rec.get('dst')}"))
        elif rec.category == "log_append":
            mode = "force" if rec.get("sync") else "lazy"
            events.append((rec.time, rec.actor, f"[{mode} {rec.get('kind')}]"))
        elif rec.category == "client_reply":
            events.append((rec.time, rec.actor, "==> reply to client"))
        elif rec.category == "lock_grant":
            continue
    events.sort(key=lambda e: e[0])

    nodes = ["mds1", "mds2"]
    col = {"mds1": 0, "mds2": 1}
    width = 44
    figure = FIGURE_OF.get(protocol)
    title = f"Figure {figure} — {protocol} timeline" if figure else f"{protocol} timeline"
    lines = [title, ""]
    header = f"{'t (ms)':>9}  " + "".join(n.ljust(width) for n in nodes)
    lines.append(header)
    lines.append(" " * 11 + "-" * (width * len(nodes)))
    for time, actor, text in events:
        actor_col = col.get(actor.replace("locks:", ""), None)
        if actor_col is None:
            continue
        row = [" " * width, " " * width]
        row[actor_col] = text.ljust(width)
        lines.append(f"{time * 1e3:9.3f}  " + "".join(row))
    return "\n".join(lines)


def render_all_timelines(params: Optional[SimulationParams] = None) -> str:
    """Figures 2-5 in paper order."""
    parts = [render_timeline(p, params=params) for p in ("PrN", "PrC", "EP", "1PC")]
    return "\n\n".join(parts)
