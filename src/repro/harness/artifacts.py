"""The artifact table: every table and figure ``EXPERIMENTS.md`` reports.

One :class:`Artifact` per block of the document, in document order.
``measure()`` runs the experiment and returns plain data (dicts, lists,
numbers, strings); ``render(data)`` is the text the document carries
between its ``<!-- repro:report NAME -->`` markers; ``claims`` are the
shape gates — what about the paper the numbers must keep reproducing,
as named predicates over the data.  :mod:`repro.harness.report` prints
the table, checks a document against it and rewrites one from it.

The inputs (points, protocol sets, burst sizes) are fixed here and in
:mod:`repro.harness.sweeps`: a different run is ``repro sweep``,
``repro burst`` or the Python entry point, not a flag of the report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Sequence

from repro.analysis.model import predict_figure6
from repro.analysis.tables import render_table
from repro.analysis.utilization import device_utilization, lock_contention
from repro.config import SimulationParams
from repro.harness.calibrate import PAPER_GAINS
from repro.harness.diagrams import FIGURE_OF, render_timelines, timeline_events
from repro.harness.figure6 import PAPER_FIGURE6, render_figure6, run_figure6
from repro.harness.migration_study import run_migration_study
from repro.harness.placement_study import run_placement_study
from repro.harness.recovery import CRASH_AFTER, ROLE_OF, measure_crash_recovery, measure_detection
from repro.harness.scaling import sweep_scaling
from repro.harness.sweeps import (
    SWEEPS,
    sweep_abort_rate,
    sweep_burst_size,
    sweep_disk_bandwidth,
    sweep_network_latency,
)
from repro.harness.table1 import measure_table1, render_table1
from repro.protocols.registry import default_protocols
from repro.workloads import run_batched_burst, run_burst

#: The paper's four protocols, in Figure 6 order.
PAPER4 = tuple(PAPER_FIGURE6)
REPLY = "==> reply to client"
Cell = Callable[[dict], str]


@dataclass(frozen=True)
class Artifact:
    """One reported table or figure."""

    name: str
    measure: Callable[[], Any]
    render: Callable[[Any], str]
    #: ``(text, predicate over measure()'s data)``, all of which must hold.
    claims: tuple[tuple[str, Callable[[Any], bool]], ...]


def _gain(row: dict, name: str, base: str = "PrN") -> float:
    """Percent by which ``row[name]`` exceeds ``row[base]``."""
    return (row[name] / row[base] - 1.0) * 100.0


def _ahead(table: dict, name: str = "1PC", base: str = "PrN") -> bool:
    return all(row[name] > row[base] for row in table.values())


def _paper_order(tps: dict) -> bool:
    return tps["1PC"] > tps["EP"] > tps["PrC"] >= tps["PrN"] * 0.999


def _show(key: Any, fmt: str = "", scale: float = 1.0) -> Cell:
    """Cell showing ``row[key]`` (times ``scale``) in format ``fmt``."""
    return lambda row: format(row[key] * scale if fmt else row[key], fmt)


def _table(
    title: str,
    labels: Sequence[str],
    columns: Sequence[tuple[str, Cell]],
    label: Callable[[Any], str] = str,
) -> Callable[[dict], str]:
    """Renderer of ``{key: row}`` data: a line per entry, its key under
    ``labels`` (a tuple key fills several), then a cell per column."""

    def render(data: dict) -> str:
        rows = [
            [
                *(key if isinstance(key, tuple) else [label(key)]),
                *(cell(row) for _header, cell in columns),
            ]
            for key, row in data.items()
        ]
        return render_table([*labels, *(h for h, _cell in columns)], rows, title=title)

    return render


def _versus(
    title: str, axis: str, label: Callable[[Any], str],
    protocols: Sequence[str] = PAPER4, name: str = "1PC", base: str = "PrN",
) -> Callable[[dict], str]:
    """Renderer of a ``{point: {protocol: tx/s}}`` sweep; the last
    column is ``name``'s gain over ``base`` at that point."""
    gain = (f"{name} vs {base}", lambda row: f"{_gain(row, name, base):+.1f}%")
    return _table(title, [axis], [*((p, _show(p, ".1f")) for p in protocols), gain], label)


def _measure_figure6() -> dict:
    figure = run_figure6()
    return {
        "n": figure.n,
        "throughput": figure.throughputs,
        "clean": {
            name: cell.committed == cell.spec.n and not cell.payload.cluster.check_invariants()
            for name, cell in figure.results.items()
        },
    }


def _render_figure6(data: dict) -> str:
    paper = ", ".join(f"{name} {tps:g}" for name, tps in PAPER_FIGURE6.items())
    gains = ", ".join(f"{name} {gain:+.2f}%" for name, gain in PAPER_GAINS.items())
    return f"{render_figure6(data['throughput'], data['n'])}\npaper: {paper} tx/s ({gains} vs PrN)"


def _measure_model() -> dict:
    predictions = predict_figure6()
    simulated = run_figure6(protocols=tuple(predictions)).throughputs
    return {
        name: {**asdict(p), "model": p.throughput, "simulated": simulated[name]}
        for name, p in predictions.items()
    }


def _measure_recovery() -> dict:
    out: dict = {}
    for protocol in default_protocols():
        row = out[protocol] = {"violations": 0}
        for victim, role in ROLE_OF.items():
            r = measure_crash_recovery(protocol, victim)
            row.update({f"{role}_settle": r.settle_time, f"{role}_committed": r.committed})
            row["violations"] += r.invariant_violations
    return out


def _measure_batching() -> dict:
    out = {}
    for batch in (1, 4, 16, 48):
        r = run_batched_burst("1PC", n=96, batch_size=batch)
        out[batch] = {
            "files_per_s": r.throughput,
            "makespan": r.makespan,
            "clean": r.committed == 96 and not r.cluster.check_invariants(),
        }
    return out


def _measure_utilization() -> dict:
    out = {}
    for protocol in PAPER4:
        cluster = run_burst(protocol, n=30, trace="full").cluster
        disks = device_utilization(cluster.trace)
        lock = lock_contention(cluster.trace)["dir:/dir1"]
        out[protocol] = {
            "coordinator_disk": disks["disk:mds1"].utilization,
            "worker_disk": disks["disk:mds2"].utilization,
            "mean_wait": lock.mean_wait,
            "max_wait": lock.max_wait,
            "clean": not cluster.check_invariants(),
        }
    return out


def _measure_group_commit() -> dict:
    paper = SimulationParams.paper_defaults()
    devices = {
        "paper device": paper.storage,
        "seek-dominated": replace(paper.storage, bandwidth=40_000_000.0, op_overhead=5e-3),
    }
    out = {}
    for protocol, device in (("PrN", "paper device"), ("PrN", "seek-dominated"),
                             ("1PC", "seek-dominated")):
        for grouped in (False, True):
            storage = replace(devices[device], group_commit=grouped)
            r = run_burst(protocol, n=40, params=paper.with_(storage=storage))
            out[protocol, device + " + GC" * grouped] = {
                "throughput": r.throughput,
                "writes": r.cluster.storage.disk_of("mds1").writes,
            }
    return out


def _speedup(data: dict, protocol: str, device: str) -> float:
    """Throughput with group commit over without, on one device."""
    return data[protocol, device + " + GC"]["throughput"] / data[protocol, device]["throughput"]


def _measure_placement() -> dict:
    return {
        (r.placement, r.protocol): {
            "distributed": r.distributed_fraction,
            "throughput": r.throughput,
        }
        for r in run_placement_study(("PrN", "1PC"), 20)
    }


def _measure_migration() -> dict:
    study = run_migration_study((5, 25, 100), 40)
    return {
        n: {strategy: r.total_time for strategy, r in runs.items()} for n, runs in study.items()
    }


def _penalty(times: dict) -> float:
    return times["migrate-first"] / times["distributed"]


ARTIFACTS: tuple[Artifact, ...] = (
    Artifact("table1", measure_table1, render_table1, (
        ("measured counts equal the analytical row (the paper's Table I, or the spec's "
         "table1_row) of every registered protocol",
         lambda d: all(r["reference"] in (None, r["measured"]) for r in d.values())),
    )),
    Artifact("figure6", _measure_figure6, _render_figure6, (
        ("1PC > EP > PrC >= PrN (PrC at worst 0.1 % below)",
         lambda d: _paper_order(d["throughput"])),
        ("1PC gains more than 50 % over PrN (paper: +60 %)",
         lambda d: _gain(d["throughput"], "1PC") > 50.0),
        ("EP gains between 3 and 12 % over PrN (paper: +6.6 %)",
         lambda d: 3.0 < _gain(d["throughput"], "EP") < 12.0),
        ("PrC gains between -0.5 and 2 % over PrN (paper: +0.39 %)",
         lambda d: -0.5 < _gain(d["throughput"], "PrC") < 2.0),
        ("every protocol commits the whole burst and leaves no invariant violation",
         lambda d: all(d["clean"].values())),
    )),
    Artifact(
        "model",
        _measure_model,
        _table("Analytical model (deep-burst steady state) vs simulation", ["Protocol"], [
            ("Lock hold (ms)", _show("lock_hold", ".2f", 1e3)),
            ("Coord disk (ms)", _show("coordinator_disk", ".2f", 1e3)),
            ("Worker disk (ms)", _show("worker_disk", ".2f", 1e3)),
            ("Solo latency (ms)", _show("solo_latency", ".2f", 1e3)),
            ("Model (tx/s)", _show("model", ".1f")),
            ("Simulated (tx/s)", _show("simulated", ".1f")),
            ("Model error", lambda row: f"{_gain(row, 'model', 'simulated'):+.1f}%"),
        ]),
        (("the model is within 12 % of the simulator for all four protocols",
          lambda d: all(abs(_gain(row, "model", "simulated")) < 12.0 for row in d.values())),
         ("the model orders Figure 6 as the paper does: 1PC > EP > PrC >= PrN",
          lambda d: _paper_order({name: row["model"] for name, row in d.items()}))),
    ),
    Artifact("timelines", lambda: {p: timeline_events(p) for p in FIGURE_OF}, render_timelines, (
        ("every figure shows exactly one client reply",
         lambda d: all(sum(text == REPLY for _t, _a, text in ev) == 1 for ev in d.values())),
        ("PrN answers the client last; 1PC before the coordinator's own COMMITTED write",
         lambda d: d["PrN"][-1][2] == REPLY
         and [e[1:] for e in d["1PC"]].index(("mds1", REPLY))
         < [e[1:] for e in d["1PC"]].index(("mds1", "[force COMMITTED]"))),
    )),
    Artifact(
        "recovery",
        _measure_recovery,
        _table(f"Recovery after a crash {CRASH_AFTER * 1e3:g} ms into a distributed CREATE",
               ["Protocol"], [
            ("Worker-crash settle (ms)", _show("worker_settle", ".1f", 1e3)),
            ("Committed", _show("worker_committed")),
            ("Coord-crash settle (ms)", _show("coordinator_settle", ".1f", 1e3)),
            ("Committed", _show("coordinator_committed")),
            ("Violations", _show("violations")),
        ]),
        (("no protocol leaves an invariant violation after either crash",
          lambda d: not any(row["violations"] for row in d.values())),),
    ),
    Artifact(
        "detection",
        lambda: {how: {"answer": measure_detection(how == "heartbeats")}
                 for how in ("heartbeats", "timeout-only")},
        _table("1PC worker-crash decision latency", ["Detection"],
               [("Crash -> client answer (ms)", _show("answer", ".1f", 1e3))]),
        (("with heartbeats the client is answered in under half the timeout-only time",
          lambda d: d["heartbeats"]["answer"] < d["timeout-only"]["answer"] / 2),),
    ),
    Artifact(
        "sweep-latency",
        lambda: sweep_network_latency(SWEEPS["latency"][0], protocols=PAPER4, n=40),
        _versus(*SWEEPS["latency"][1:]),
        (("1PC beats PrN at every latency", _ahead),
         ("1PC's lead over PrN is larger on the slowest network than on the fastest",
          lambda d: _gain(d[5e-3], "1PC") > _gain(d[10e-6], "1PC"))),
    ),
    Artifact(
        "sweep-disk",
        lambda: sweep_disk_bandwidth(SWEEPS["disk"][0], protocols=PAPER4, n=40),
        _versus(*SWEEPS["disk"][1:]),
        (("1PC beats PrN at every bandwidth", _ahead),
         ("every protocol is faster on the fastest device than on the slowest",
          lambda d: all(d[max(d)][p] > d[min(d)][p] for p in PAPER4)),
         ("1PC leads PrN by more than 30 % on both the slowest and the fastest device",
          lambda d: min(_gain(d[min(d)], "1PC"), _gain(d[max(d)], "1PC")) > 30.0)),
    ),
    Artifact(
        "sweep-burst",
        lambda: sweep_burst_size(SWEEPS["burst"][0], protocols=PAPER4),
        _versus(*SWEEPS["burst"][1:]),
        (("1PC beats PrN at every burst size", _ahead),
         ("1PC saturates: 150 creates run within 25 % of the rate of 50",
          lambda d: abs(d[150]["1PC"] / d[50]["1PC"] - 1.0) < 0.25)),
    ),
    Artifact(
        "abort-rate",
        lambda: sweep_abort_rate(SWEEPS["abort"][0], protocols=PAPER4, n=40),
        _versus(*SWEEPS["abort"][1:]),
        (("1PC beats PrN at every abort rate", _ahead),
         ("1PC's committed throughput falls as aborts are injected",
          lambda d: d[max(d)]["1PC"] < d[0.0]["1PC"])),
    ),
    Artifact(
        "presumed",
        lambda: sweep_abort_rate((0.0, 0.2, 0.45), protocols=("PrC", "PrA"), n=40),
        _versus("Presumption crossover: committed tx/s vs abort rate", *SWEEPS["abort"][2:],
                ("PrC", "PrA"), "PrA", "PrC"),
        (("with no aborts PrC is at least on par with PrA (within 2 %)",
          lambda d: d[0.0]["PrC"] >= d[0.0]["PrA"] * 0.98),
         ("PrA overtakes PrC at the highest abort rate",
          lambda d: _gain(d[max(d)], "PrA", "PrC") > 0)),
    ),
    Artifact(
        "batching",
        _measure_batching,
        _table("§VI aggregation: 96 creates under 1PC", ["Batch size"],
               [("Files/s", _show("files_per_s", ".1f")),
                ("Makespan (ms)", _show("makespan", ".1f", 1e3))]),
        (("every batch size commits all the files and leaves no invariant violation",
          lambda d: all(row["clean"] for row in d.values())),
         ("batches of 16 run more than 1.7 x the unbatched rate",
          lambda d: d[16]["files_per_s"] > 1.7 * d[1]["files_per_s"]),
         ("batches of 48 keep at least 95 % of the rate of 16 (saturation)",
          lambda d: d[48]["files_per_s"] >= d[16]["files_per_s"] * 0.95)),
    ),
    Artifact(
        "utilization",
        _measure_utilization,
        _table("Resource profile of a 30-create burst", ["Protocol"], [
            ("Coord disk util", _show("coordinator_disk", ".0%")),
            ("Worker disk util", _show("worker_disk", ".0%")),
            ("Mean dir-lock wait (ms)", _show("mean_wait", ".1f", 1e3)),
            ("Max (ms)", _show("max_wait", ".1f", 1e3)),
        ]),
        (("mean directory-lock wait is ordered 1PC < EP < PrN",
          lambda d: d["1PC"]["mean_wait"] < d["EP"]["mean_wait"] < d["PrN"]["mean_wait"]),
         ("no run leaves an invariant violation",
          lambda d: all(row["clean"] for row in d.values()))),
    ),
    Artifact(
        "scaling",
        lambda: sweep_scaling((1, 2, 4), protocols=("PrN", "1PC")),
        _versus("Aggregate throughput (tx/s) vs cluster size", "Coordinator pairs",
                lambda pairs: f"{pairs} ({2 * pairs} MDSs)", ("PrN", "1PC")),
        (("4 pairs give more than 3 x, 2 pairs more than 1.6 x one pair, for PrN and 1PC",
          lambda d: all(d[4][p] > 3.0 * d[1][p] and d[2][p] > 1.6 * d[1][p] for p in d[1])),
         ("1PC beats PrN at every cluster size", _ahead)),
    ),
    Artifact(
        "group-commit",
        _measure_group_commit,
        _table("Group-commit ablation (40-create burst)", ["Protocol", "Device"],
               [("tx/s", _show("throughput", ".1f")),
                ("Coordinator device writes", _show("writes"))]),
        (("group commit gains PrN more than 5 % on the seek-dominated device",
          lambda d: _speedup(d, "PrN", "seek-dominated") > 1.05),
         ("1PC stays within 10 % either way on the seek-dominated device",
          lambda d: 0.9 < _speedup(d, "1PC", "seek-dominated") < 1.1),
         ("on the paper's device group commit costs PrN at most 2 %",
          lambda d: _speedup(d, "PrN", "paper device") >= 0.98)),
    ),
    Artifact(
        "placement",
        _measure_placement,
        _table("Placement study: 80 creates over 4 directories, 4 MDSs", ["Placement", "Protocol"],
               [("Distributed ops", _show("distributed", ".0%")),
                ("tx/s", _show("throughput", ".1f"))]),
        (("hash placement distributes more than half of the creates, subtree under 5 %",
          lambda d: d["hash", "1PC"]["distributed"] > 0.5
          and d["subtree", "1PC"]["distributed"] < 0.05),
         ("under hash placement 1PC runs more than 10 % ahead of PrN",
          lambda d: d["hash", "1PC"]["throughput"] > d["hash", "PrN"]["throughput"] * 1.1),
         ("under subtree placement the protocols are within 5 % of each other",
          lambda d: 0.95
          < d["subtree", "1PC"]["throughput"] / d["subtree", "PrN"]["throughput"]
          < 1.05),
         ("locality beats distribution: subtree PrN outruns hash 1PC",
          lambda d: d["subtree", "PrN"]["throughput"] > d["hash", "1PC"]["throughput"])),
    ),
    Artifact(
        "migration",
        _measure_migration,
        _table("Migration vs distributed 1PC (40-entry directory)", ["Creates after"], [
            ("1PC per-op (ms)", _show("distributed", ".1f", 1e3)),
            ("Migrate-first (ms)", _show("migrate-first", ".1f", 1e3)),
            ("Penalty", lambda times: f"{_penalty(times):.2f}x"),
        ]),
        (("the migration penalty shrinks as more creates amortise it",
          lambda d: _penalty(d[max(d)]) < _penalty(d[min(d)])),
         ("migrate-first is never ahead of per-operation 1PC",
          lambda d: all(_penalty(times) > 1.0 for times in d.values()))),
    ),
)
