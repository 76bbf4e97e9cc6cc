"""Figures 2-5: protocol timelines regenerated from traces.

Each paper figure is a message/write sequence diagram for one
distributed namespace operation.  ``render_timeline`` runs a single
distributed CREATE under the requested protocol and renders the trace
as a two-column timeline: one column per MDS, message arrows between
them, log writes and the client reply annotated with virtual
timestamps.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.config import SimulationParams
from repro.mds.scenarios import distributed_create_cluster

#: Paper figure number per protocol.
FIGURE_OF = {"PrN": 2, "PrC": 3, "EP": 4, "1PC": 5}


def timeline_events(
    protocol: str, params: Optional[SimulationParams] = None
) -> list[tuple[float, str, str]]:
    """``(time, node, what)`` of one distributed CREATE under
    ``protocol``: its protocol messages, log writes and client reply,
    in trace order."""
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
    events.sort(key=lambda e: e[0])
    return events


def render_events(protocol: str, events: Sequence[tuple[float, str, str]]) -> str:
    """:func:`timeline_events` as a two-column ASCII timeline."""
    nodes = ["mds1", "mds2"]
    width = 44
    figure = FIGURE_OF.get(protocol)
    title = f"Figure {figure} — {protocol} timeline" if figure else f"{protocol} timeline"
    lines = [title, ""]
    lines.append(f"{'t (ms)':>9}  " + "".join(n.ljust(width) for n in nodes))
    lines.append(" " * 11 + "-" * (width * len(nodes)))
    for time, actor, text in events:
        if actor not in nodes:
            continue
        row = [" " * width] * len(nodes)
        row[nodes.index(actor)] = text.ljust(width)
        lines.append(f"{time * 1e3:9.3f}  " + "".join(row))
    return "\n".join(lines)


def render_timeline(protocol: str, params: Optional[SimulationParams] = None) -> str:
    """One distributed CREATE under ``protocol`` as an ASCII timeline."""
    return render_events(protocol, timeline_events(protocol, params))


def render_timelines(events: Mapping[str, Sequence[tuple[float, str, str]]]) -> str:
    """Several protocols' :func:`timeline_events`, one figure each."""
    return "\n\n".join(render_events(p, ev) for p, ev in events.items())


def render_all_timelines(params: Optional[SimulationParams] = None) -> str:
    """Figures 2-5 in paper order."""
    return render_timelines({p: timeline_events(p, params) for p in FIGURE_OF})
