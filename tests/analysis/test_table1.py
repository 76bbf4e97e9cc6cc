"""The headline correctness artifact: measured Table I == the declared rows.

Each row is declared once, on its protocol's spec; the paper's four
are the specs of PrN, PrC, EP and 1PC.
"""

import pytest

from repro.analysis.costs import CostRow, measure_protocol_costs
from repro.harness.table1 import measure_table1, reference_row, render_table1
from repro.protocols.registry import get_spec, specs

#: Protocols whose spec declares a Table-I row.
DECLARED = sorted(s.name for s in specs() if s.table1_row is not None)
#: The paper's rows.
PAPER = ("PrN", "PrC", "EP", "1PC")


@pytest.mark.parametrize("protocol", DECLARED)
def test_measured_costs_match_paper(protocol):
    measured = measure_protocol_costs(protocol)
    assert measured.row == reference_row(protocol), (
        f"{protocol}: measured {measured.row} != declared {reference_row(protocol)}"
    )


def test_paper_rows_transcribed_correctly():
    assert get_spec("PrN").table1_row == (5, 1, 4, 1, 4, 4)
    assert get_spec("PrC").table1_row == (4, 1, 3, 0, 3, 2)
    assert get_spec("EP").table1_row == (4, 1, 3, 0, 1, 0)
    assert get_spec("1PC").table1_row == (3, 1, 2, 0, 1, 0)


def test_one_pc_strictly_dominates_prn():
    a, b = reference_row("1PC"), reference_row("PrN")
    assert a.sync_total < b.sync_total
    assert a.sync_critical < b.sync_critical
    assert a.msgs_total < b.msgs_total
    assert a.msgs_critical < b.msgs_critical


def test_client_latency_reflects_critical_path():
    """Fewer critical-path writes must mean lower client latency."""
    latencies = {p: measure_protocol_costs(p).client_latency for p in PAPER}
    assert latencies["1PC"] < latencies["EP"] <= latencies["PrC"] < latencies["PrN"]


def test_render_table_mentions_all_protocols():
    text = render_table1(measure_table1(measured=False))
    for name in DECLARED:
        assert name in text
    assert "Table I" in text


def test_reference_row_resolution():
    assert reference_row("PrN") == CostRow(5, 1, 4, 1, 4, 4)
    assert reference_row("PC") == CostRow(11, 1, 5, 1, 15, 15)
    assert reference_row("LGL") == CostRow(0, 0, 0, 0, 7, 4)


def test_logless_row_truly_logless():
    """LGL's claimed row is the headline: zero log writes."""
    row = measure_protocol_costs("LGL").row
    assert (row.sync_total, row.async_total) == (0, 0)
    assert (row.sync_critical, row.async_critical) == (0, 0)


def test_render_table_measured_marks_agreement():
    text = render_table1(measure_table1(measured=True))
    # Every bracketed measured value equals the preceding paper value.
    assert "(5, 1) [(5, 1)]" in text
    assert "(3, 1) [(3, 1)]" in text
