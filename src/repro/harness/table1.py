"""Table I: log writes and messages per protocol, analytical + measured.

The protocol list comes from the plug-in registry
(:mod:`repro.protocols.registry`): the paper's four rows are rendered
against :data:`~repro.analysis.costs.TABLE1`, extension protocols
against the ``table1_row`` their :class:`~repro.protocols.registry.ProtocolSpec`
declares, and a protocol with neither shows its measured counts alone.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Callable, Optional

from repro.analysis.costs import TABLE1, CostRow, measure_protocol_costs
from repro.analysis.tables import render_table
from repro.protocols.registry import default_protocols, get_spec


def reference_row(name: str) -> Optional[CostRow]:
    """The analytical Table-I row claimed for ``name``.

    The paper's table (:data:`TABLE1`) wins; extension protocols fall
    back to the ``table1_row`` declared on their spec; ``None`` when no
    analytical row is claimed.
    """
    if name in TABLE1:
        return TABLE1[name]
    row = get_spec(name).table1_row
    return CostRow(*row) if row is not None else None


def measure_table1(measured: bool = True) -> dict[str, dict[str, Optional[tuple]]]:
    """Plain data behind Table I: per registered protocol its analytical
    ``reference`` row and (with ``measured``) its trace-derived
    ``measured`` row, each a :class:`CostRow` as a tuple or ``None``."""
    out: dict[str, dict[str, Optional[tuple]]] = {}
    for name in default_protocols():
        paper = reference_row(name)
        out[name] = {
            "reference": astuple(paper) if paper is not None else None,
            "measured": astuple(measure_protocol_costs(name).row) if measured else None,
        }
    return out


def render_table1(data: dict[str, dict[str, Optional[tuple]]]) -> str:
    """Table I as text: ``paper [measured]`` per cell, ``-`` where no
    analytical row is claimed; unmeasured data renders the paper alone
    (and skips protocols that claim no row)."""
    headers = [
        "Protocol",
        "Total Log Writes (sync, async)",
        "Critical Path (sync, async)",
        "Total Messages",
        "Messages in Critical Path",
    ]
    measured = any(row["measured"] is not None for row in data.values())
    rows = [
        [name, _pair(row, 0), _pair(row, 2), _single(row, 4), _single(row, 5)]
        for name, row in data.items()
        if measured or row["reference"] is not None
    ]
    suffix = " — paper [measured]" if measured else " — paper"
    return render_table(headers, rows, title="Table I" + suffix)


def run_table1(measured: bool = True) -> str:
    """Render Table I; with ``measured`` the trace-derived counts are
    placed next to the paper's numbers (they must agree)."""
    return render_table1(measure_table1(measured))


def _cell(row: dict[str, Optional[tuple]], show: Callable[[tuple], str]) -> str:
    paper, measured = row["reference"], row["measured"]
    text = "-" if paper is None else show(paper)
    return text if measured is None else f"{text} [{show(measured)}]"


def _pair(row: dict[str, Optional[tuple]], i: int) -> str:
    return _cell(row, lambda r: f"({r[i]}, {r[i + 1]})")


def _single(row: dict[str, Optional[tuple]], i: int) -> str:
    return _cell(row, lambda r: str(r[i]))
